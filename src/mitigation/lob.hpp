// L-Ob — the switch-to-switch link-obfuscation controller (paper Sec. IV-A,
// Fig. 4), attached to one output port's retransmission buffers.
//
// When the downstream threat detector advises escalation, the controller
// walks an ordered sequence of (method, granularity) combinations —
// invert, shuffle, scramble at header/flit/payload granularity — until a
// transmission succeeds. Successful methods are logged per flow signature
// so later flits "having the same problem" jump straight to the method that
// worked (paper Fig. 6, final step).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "noc/hooks.hpp"
#include "noc/obfuscation.hpp"
#include "trace/sink.hpp"

namespace htnoc::verify {
struct StateCodec;  // snapshot/restore (src/verify/snapshot.cpp)
}

namespace htnoc::mitigation {

struct LObParams {
  /// The default escalation order: it walks granularities from header (the
  /// usual DPI trigger region) out to the whole flit, across all three
  /// methods. A constant array rather than an initializer list, which
  /// GCC 12 at -O2 and above falsely reports as read uninitialized
  /// (-Wmaybe-uninitialized) wherever this constructor is inlined.
  static constexpr std::array<std::pair<ObfMethod, ObfGranularity>, 7>
      kDefaultSequence{{
          {ObfMethod::kInvert, ObfGranularity::kHeader},
          {ObfMethod::kShuffle, ObfGranularity::kHeader},
          {ObfMethod::kScramble, ObfGranularity::kFlit},
          {ObfMethod::kInvert, ObfGranularity::kFlit},
          {ObfMethod::kShuffle, ObfGranularity::kFlit},
          {ObfMethod::kInvert, ObfGranularity::kPayload},
          {ObfMethod::kShuffle, ObfGranularity::kPayload},
      }};
  /// Escalation order.
  std::vector<std::pair<ObfMethod, ObfGranularity>> sequence{
      kDefaultSequence.begin(), kDefaultSequence.end()};
  /// Consult the per-flow success log to skip straight to a proven method.
  bool use_success_log = true;
};

/// A single-entry escalation sequence: every escalated transmission uses
/// exactly (method, granularity) with no fallback. Used by ablations and
/// the fault campaign to force one obfuscation method and observe its
/// standalone effect.
[[nodiscard]] inline LObParams forced_lob_params(ObfMethod method,
                                                ObfGranularity granularity) {
  return {.sequence = {{method, granularity}}};
}

class LObController final : public htnoc::LObController {
 public:
  struct Stats {
    std::uint64_t obfuscated_attempts = 0;
    std::uint64_t successes = 0;          ///< ACKed obfuscated transmissions.
    std::uint64_t method_exhaustions = 0; ///< Walked off the sequence end.
    std::uint64_t log_hits = 0;
  };

  explicit LObController(LObParams params = {}) : params_(std::move(params)) {
    HTNOC_EXPECT(!params_.sequence.empty());
  }

  // --- htnoc::LObController interface ---
  ObfuscationTag plan(Cycle now, const Flit& flit, int attempt, bool escalate,
                      bool partner_available) override;
  void on_ack(Cycle now, const Flit& flit, const ObfuscationTag& tag) override;
  void on_nack(Cycle now, const Flit& flit, const ObfuscationTag& tag) override;

  /// Install the trace tap under the owning router's track, tagged with the
  /// output port this controller guards.
  void set_trace(trace::Tap tap, std::uint16_t router, std::int8_t port) {
    tap_ = tap;
    trace_node_ = router;
    trace_port_ = port;
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// Logged successful sequence index for a flow, or -1. For tests.
  [[nodiscard]] int logged_method(RouterId src, RouterId dest) const {
    const auto it = success_log_.find(flow_key(src, dest));
    return it == success_log_.end() ? -1 : it->second;
  }

 private:
  friend struct htnoc::verify::StateCodec;

  [[nodiscard]] static std::uint32_t flow_key(RouterId src, RouterId dest) noexcept {
    return (static_cast<std::uint32_t>(dest) << 16) | src;
  }

  /// Sequence cursor for a flit currently being escalated.
  struct FlitState {
    int seq_index = 0;
    bool active = false;
  };

  LObParams params_;
  std::map<std::uint64_t, FlitState> flit_states_;  // by flit uid
  std::map<std::uint32_t, int> success_log_;        // flow key -> seq index
  trace::Tap tap_;
  std::uint16_t trace_node_ = 0;
  std::int8_t trace_port_ = -1;
  Stats stats_;
};

}  // namespace htnoc::mitigation
