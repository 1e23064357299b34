// TraceSink: a preallocated power-of-two ring buffer of Event records plus
// the per-category enable mask, and Tap, the value-type handle components
// hold. The hot-path contract: with tracing off, Tap::on() is one branch on
// a cached null pointer; on, it adds one category-mask test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/expect.hpp"
#include "trace/events.hpp"

namespace htnoc::verify {
struct StateCodec;  // snapshot/restore (src/verify/snapshot.cpp)
}

namespace htnoc::trace {

struct TraceConfig {
  bool enabled = false;
  std::uint32_t categories = raw(Category::kAll);
  /// Ring capacity in records; rounded up to a power of two (>= 16). The
  /// default window holds 64Ki events (~2.5 MiB).
  std::size_t capacity = std::size_t{1} << 16;
};

/// The exportable artifact a sink produces: configuration + topology
/// metadata + the surviving chronological event window.
struct TraceLog {
  TraceConfig config;
  std::uint16_t num_routers = 0;
  std::uint8_t mesh_width = 0;
  std::uint8_t mesh_height = 0;
  std::uint8_t concentration = 0;
  std::uint8_t topology_kind = 0;  ///< htnoc::TopologyKind (0 = cmesh).
  std::uint64_t total_recorded = 0;  ///< Including overwritten records.
  std::vector<Event> events;         ///< Oldest first.

  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return total_recorded - events.size();
  }
};

class TraceSink final {
 public:
  explicit TraceSink(const TraceConfig& cfg) : cfg_(cfg) {
    std::size_t cap = 16;
    while (cap < cfg.capacity) cap <<= 1;
    ring_.resize(cap);
    mask_ = cap - 1;
  }

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Is this category being captured? (The caller-side filter; record()
  /// itself is unconditional.)
  [[nodiscard]] bool wants(Category c) const noexcept {
    return (cfg_.categories & raw(c)) != 0;
  }

  void record(const Event& e) noexcept {
    if (stage_tls_ != nullptr) {
      // Parallel-step staging: this worker's events go to its shard buffer;
      // Network::step replays them into the ring in deterministic unit
      // order at the phase barrier. (push_back can allocate; an OOM here
      // terminates, which is the only honest option inside noexcept.)
      stage_tls_->push_back(e);
      return;
    }
    ring_[static_cast<std::size_t>(head_) & mask_] = e;
    ++head_;
  }

  /// Redirect this thread's record() calls into `stage` (nullptr restores
  /// direct ring writes). Thread-local, so concurrent shard workers stage
  /// independently; the main thread merges the buffers afterwards.
  static void set_thread_stage(std::vector<Event>* stage) noexcept {
    stage_tls_ = stage;
  }

  /// Recorded by Network::set_trace so exports are self-describing.
  void set_topology(std::uint16_t num_routers, std::uint8_t width,
                    std::uint8_t height, std::uint8_t concentration,
                    std::uint8_t topology_kind = 0) noexcept {
    num_routers_ = num_routers;
    mesh_width_ = width;
    mesh_height_ = height;
    concentration_ = concentration;
    topology_kind_ = topology_kind;
  }

  [[nodiscard]] std::uint64_t total_recorded() const noexcept { return head_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] const TraceConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint16_t num_routers() const noexcept {
    return num_routers_;
  }

  /// Snapshot the surviving window, oldest record first.
  [[nodiscard]] std::vector<Event> snapshot() const {
    std::vector<Event> out;
    const std::uint64_t n =
        head_ < ring_.size() ? head_ : static_cast<std::uint64_t>(ring_.size());
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = head_ - n; i < head_; ++i) {
      out.push_back(ring_[static_cast<std::size_t>(i) & mask_]);
    }
    return out;
  }

  [[nodiscard]] TraceLog log() const {
    TraceLog l;
    l.config = cfg_;
    l.num_routers = num_routers_;
    l.mesh_width = mesh_width_;
    l.mesh_height = mesh_height_;
    l.concentration = concentration_;
    l.topology_kind = topology_kind_;
    l.total_recorded = head_;
    l.events = snapshot();
    return l;
  }

 private:
  friend struct htnoc::verify::StateCodec;

  static inline thread_local std::vector<Event>* stage_tls_ = nullptr;

  TraceConfig cfg_;
  std::vector<Event> ring_;
  std::size_t mask_ = 0;
  std::uint64_t head_ = 0;  ///< Monotonic; ring index is head_ & mask_.
  std::uint16_t num_routers_ = 0;
  std::uint8_t mesh_width_ = 0;
  std::uint8_t mesh_height_ = 0;
  std::uint8_t concentration_ = 0;
  std::uint8_t topology_kind_ = 0;
};

/// The handle instrumented components store by value. Null (the default)
/// means tracing is off for that component; on() is the single branch the
/// hot paths pay.
class Tap {
 public:
  constexpr Tap() noexcept = default;
  explicit constexpr Tap(TraceSink* sink) noexcept : sink_(sink) {}

  [[nodiscard]] bool on(Category c) const noexcept {
    return sink_ != nullptr && sink_->wants(c);
  }

  /// Only call after on(category_of(e.type)) returned true.
  void emit(const Event& e) const noexcept {
    HTNOC_EXPECT(sink_ != nullptr);
    sink_->record(e);
  }

  [[nodiscard]] TraceSink* sink() const noexcept { return sink_; }

 private:
  TraceSink* sink_ = nullptr;
};

}  // namespace htnoc::trace
