// sweep_cli — compose and run a parallel experiment sweep from the command
// line: a cartesian grid over mitigation mode x attack placement x traffic
// profile x injection-rate scale x seed replicates, executed on N worker
// threads with bit-deterministic results (same output for any -j).
//
//   sweep_cli --modes none,lob,reroute --attacks none,single
//             --profiles blackscholes,fft --rates 0.5,1.0,1.5
//             --replicates 4 --cycles 3000 --jobs 8 --json sweep.json
//
// Prints the aggregated summary (mean/stddev/min/max per grid point) as
// CSV on stdout; --json / --runs-csv write the full result to files.
//
// Exit status: 0 when every run succeeded, 1 when a run failed or an
// artifact could not be written, 2 on usage errors.
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "count_flag.hpp"
#include "sweep/emit.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec_json.hpp"
#include "trace/export.hpp"
#include "trace/forensics.hpp"

namespace {

using namespace htnoc;

void usage() {
  std::printf(
      "usage: sweep_cli [options]\n"
      "  --spec FILE        load a sweep spec from JSON (docs/REPRODUCING.md,\n"
      "                     \"Spec files\"); other flags override it\n"
      "  --modes M,..       mitigation modes: none, lob, reroute "
      "(default none)\n"
      "  --attacks A,..     attack scenarios: none, single, mem, multi "
      "(default none)\n"
      "  --profiles P,..    traffic profiles: blackscholes, facesim, "
      "ferret, fft\n"
      "  --rates R,..       injection-rate scale factors (default 1.0)\n"
      "  --replicates N     seed replicates per grid point (default 3)\n"
      "  --cycles N         fixed-horizon run length (default 3000)\n"
      "  --requests N       run to completion of N requests instead\n"
      "  --budget N         cycle budget in completion mode (default 2e6)\n"
      "  --seed S           sweep base seed (default 0x5EED)\n"
      "  --jobs N           worker threads (default: $HTNOC_JOBS or cores)\n"
      "  --json FILE        write the full result as JSON\n"
      "  --runs-csv FILE    write per-run metrics as CSV\n"
      "  --trace DIR        capture an event trace per run; writes\n"
      "                     <label>.trace.{bin,json} + .timeline.txt to DIR\n"
      "  --trace-categories C,..  categories to capture (default all);\n"
      "                     e.g. link,ecc,retransmission,saturation\n"
      "  --help             this text\n");
}

/// A run label like "mode=lob attack=single ... rep=0" as a filename stem.
std::string sanitize_label(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (const char c : label) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                          c == '=' || c == '.' || c == '-'
                      ? c
                      : '_');
  }
  return out;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Write one artifact through `emit`; false (reported on stderr) when the
/// file cannot be opened or written.
template <class Emit>
bool write_artifact(const std::string& path, Emit&& emit,
                    std::ios::openmode mode = std::ios::out) {
  std::ofstream f(path, mode);
  emit(f);
  f.close();
  if (f) return true;
  std::fprintf(stderr, "sweep_cli: cannot write %s\n", path.c_str());
  return false;
}

/// Whole-file slurp for --spec (throws on unreadable path).
std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read spec file: " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace htnoc;
  sweep::SweepSpec spec;
  spec.replicates = 3;
  int jobs = 0;
  std::string json_path;
  std::string runs_csv_path;
  std::string trace_dir;

  std::string arg;  // the flag being parsed, for the error message
  try {
    // --spec loads first (wherever it appears), so every other flag
    // overrides on top of the file — the same precedence whatever the
    // argument order.
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--spec") == 0) {
        arg = "--spec";
        if (i + 1 >= argc) throw std::runtime_error("needs a value");
        // The file carries the spec schema's defaults (replicates 1), not
        // the CLI's replicates=3: the file alone defines the runs.
        spec = sweep::parse_sweep_spec(read_file(argv[i + 1]));
        break;
      }
    }
    for (int i = 1; i < argc; ++i) {
      arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error("needs a value");
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else if (arg == "--spec") {
        (void)value();  // consumed by the first pass
      } else if (arg == "--modes") {
        spec.modes.clear();
        for (const auto& m : split_csv(value())) {
          spec.modes.push_back(sweep::mitigation_mode_from_string(m));
        }
      } else if (arg == "--attacks") {
        spec.attack_scenarios.clear();
        for (const auto& a : split_csv(value())) {
          spec.attack_scenarios.push_back(sweep::attack_scenario_preset(a));
        }
      } else if (arg == "--profiles") {
        spec.profiles = split_csv(value());
      } else if (arg == "--rates") {
        spec.rate_scales.clear();
        for (const auto& r : split_csv(value())) {
          spec.rate_scales.push_back(std::stod(r));
        }
      } else if (arg == "--replicates") {
        spec.replicates = static_cast<int>(htnoc::cli::parse_count(
            value(), 10, std::numeric_limits<int>::max()));
      } else if (arg == "--cycles") {
        spec.run_cycles = htnoc::cli::parse_count(value());
      } else if (arg == "--requests") {
        spec.total_requests = htnoc::cli::parse_count(value());
      } else if (arg == "--budget") {
        spec.cycle_budget = htnoc::cli::parse_count(value());
      } else if (arg == "--seed") {
        spec.base_seed = std::stoull(value(), nullptr, 0);
      } else if (arg == "--jobs") {
        jobs = std::stoi(value());
      } else if (arg == "--json") {
        json_path = value();
      } else if (arg == "--runs-csv") {
        runs_csv_path = value();
      } else if (arg == "--trace") {
        trace_dir = value();
        spec.base.trace.enabled = true;
      } else if (arg == "--trace-categories") {
        spec.base.trace.categories = trace::parse_categories(value());
      } else {
        throw std::runtime_error("unknown option");
      }
    }
  } catch (const std::exception& e) {
    // std::sto* failures carry only the function name.
    const bool bad_number = dynamic_cast<const std::invalid_argument*>(&e) ||
                            dynamic_cast<const std::out_of_range*>(&e);
    std::fprintf(stderr, "sweep_cli: %s: %s\n", arg.c_str(),
                 bad_number ? "not a valid number" : e.what());
    usage();
    return 2;
  }
  if (spec.base.trace.enabled && trace_dir.empty()) {
    // Every run would record a trace that nothing writes out.
    std::fprintf(stderr,
                 "sweep_cli: the spec enables tracing; pass --trace DIR to "
                 "say where the traces go\n");
    return 2;
  }

  try {
    const auto t0 = std::chrono::steady_clock::now();
    sweep::SweepRunner::Options runner_opts;
    runner_opts.num_threads = jobs;
    const sweep::SweepRunner runner(runner_opts);
    const sweep::SweepResult result = runner.run(spec);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    sweep::write_summary_csv(std::cout, result);
    bool written = true;
    if (!json_path.empty()) {
      written &= write_artifact(
          json_path, [&](std::ostream& f) { sweep::write_json(f, result); });
    }
    if (!runs_csv_path.empty()) {
      written &= write_artifact(runs_csv_path, [&](std::ostream& f) {
        sweep::write_runs_csv(f, result);
      });
    }
    if (!trace_dir.empty()) {
      if (!trace::kCompiledIn) {
        std::fprintf(stderr,
                     "[sweep] --trace ignored: built with HTNOC_TRACE=0\n");
      }
      std::filesystem::create_directories(trace_dir);
      std::size_t traces = 0;
      for (const auto& r : result.runs) {
        if (!r.ok || !r.trace) continue;
        const std::string stem =
            trace_dir + "/" + sanitize_label(r.spec.label());
        const trace::TraceLog& log = *r.trace;
        written &= write_artifact(
            stem + ".trace.bin",
            [&](std::ostream& f) { trace::write_binary(f, log); },
            std::ios::binary);
        written &= write_artifact(stem + ".trace.json", [&](std::ostream& f) {
          trace::write_chrome_json(f, log);
        });
        written &= write_artifact(stem + ".timeline.txt", [&](std::ostream& f) {
          trace::print_timeline(f, log, trace::analyze(log));
        });
        ++traces;
      }
      std::fprintf(stderr, "[sweep] wrote %zu trace(s) to %s\n", traces,
                   trace_dir.c_str());
    }

    std::fprintf(stderr,
                 "[sweep] %zu runs (%zu grid points x %d replicates) on %d "
                 "thread(s) in %.2fs, %zu failed\n",
                 result.runs.size(), spec.num_grid_points(), spec.replicates,
                 result.threads_used, secs, result.failures());
    for (const auto& r : result.runs) {
      if (!r.ok) {
        std::fprintf(stderr, "[sweep] FAILED %s: %s\n", r.spec.label().c_str(),
                     r.error.c_str());
      }
    }
    return written && result.failures() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_cli: %s\n", e.what());
    return 1;
  }
}
