// In-memory span recorder for perfbench's traced mode. Spans are kept in
// memory while the benchmark runs and written out once, at exit, as a
// Chrome-trace JSON document (the format Perfetto and chrome://tracing open).
// Every span carries its own id and the id of the span that caused it, so
// nesting survives even where two spans share a start time.
#pragma once

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class SpanLog {
 public:
  static constexpr int kNoParent = -1;

  SpanLog() : origin_(Clock::now()) {}

  /// Open a span that will contain others; close it with close().
  int open(const char* name, Clock::time_point begin, int parent = kNoParent) {
    spans_.push_back({name, begin, begin, parent, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// `args` is a JSON object body ("\"k\": 1, ...") attached to the span.
  void close(int id, Clock::time_point end, std::string args = {}) {
    spans_.at(static_cast<std::size_t>(id)).end = end;
    spans_.at(static_cast<std::size_t>(id)).args = std::move(args);
  }
  /// Record a finished leaf span.
  int add(const char* name, Clock::time_point begin, Clock::time_point end,
          int parent = kNoParent) {
    spans_.push_back({name, begin, end, parent, {}});
    return static_cast<int>(spans_.size()) - 1;
  }

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  void write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %d%s%s}}",
                   i == 0 ? "" : ",\n", s.name, micros(s.begin),
                   micros(s.end) - micros(s.begin), i, s.parent,
                   s.args.empty() ? "" : ", ", s.args.c_str());
    }
    std::fputs("\n]}\n", f);
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
  }

 private:
  struct Span {
    const char* name;
    Clock::time_point begin;
    Clock::time_point end;
    int parent;
    std::string args;
  };

  [[nodiscard]] double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
