// TASP — the target-activated sequential-payload hardware trojan (paper
// Sec. III, Fig. 3). Implanted on a link, it consists of
//   (i)  a target block: comparators over a tunable slice of the wire image
//        (source, destination, VC, memory address, or combinations),
//   (ii) a Y-bit payload counter FSM that walks the fault locations between
//        injections so repeated faults masquerade as transients, and
//   (iii) an XOR tree that flips exactly two wires per injection — enough
//        for SECDED to *detect* but never *correct*, forcing endless
//        retransmission (the DoS mechanism).
//
// Enabling requires both the externally driven kill switch AND a target
// sighting; until then the FSM holds its state and the trojan is electri-
// cally quiet (only leakage is observable, Sec. V-A).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/expect.hpp"
#include "ecc/codec.hpp"
#include "noc/fault_model.hpp"
#include "noc/wire.hpp"
#include "trace/sink.hpp"

namespace htnoc::verify {
struct StateCodec;  // snapshot/restore (src/verify/snapshot.cpp)
}

namespace htnoc::trojan {

/// Which packet characteristics the target comparator is tuned to
/// (Table I / Fig. 9 evaluate the area/power of each variant).
enum class TargetKind : std::uint8_t {
  kFull,     ///< All 42 DPI bits: src+dest+vc+mem.
  kDest,     ///< Destination router (4 bits).
  kSrc,      ///< Source router (4 bits).
  kDestSrc,  ///< Destination and source (8 bits).
  kMem,      ///< Memory address (32 bits).
  kVc,       ///< Virtual channel id (2 bits).
  kThread,   ///< Originating thread/process id (6 bits) — the remaining
             ///< comparator option the paper lists (Sec. III-B).
};

[[nodiscard]] std::string to_string(TargetKind k);
/// Inverse of to_string; throws ContractViolation on an unknown name.
[[nodiscard]] TargetKind target_kind_from_string(const std::string& s);
/// Comparator bit-width of each variant (paper: src 4, dest 4, VC 2,
/// dest_src 8, mem 32, full 42).
[[nodiscard]] unsigned target_width(TargetKind k);

/// The fault signature the payload injects per trigger.
enum class PayloadPattern : std::uint8_t {
  kDoubleDetectable,  ///< 2-bit flips: detected, uncorrectable -> DoS (TASP).
  kSingleCorrectable, ///< 1-bit flips: absorbed by ECC (prior-work SDC HTs).
  kTripleSdc,         ///< 3-bit flips: may alias to a bogus "correction" (SDC).
};

struct TaspParams {
  TargetKind kind = TargetKind::kDest;
  /// Field values the comparator is tuned to; only those selected by `kind`
  /// participate in the match.
  RouterId target_src = 0;
  RouterId target_dest = 0;
  VcId target_vc = 0;
  std::uint8_t target_thread = 0;
  std::uint32_t target_mem = 0;
  /// Mask applied to the memory-address comparator (1 = compare). Allows
  /// range targeting, e.g. a whole page.
  std::uint32_t mem_mask = 0xFFFFFFFFu;

  /// The link code the attacker designed against ("we assume the attacker
  /// has knowledge of the ECC between links", Sec. III-B). Determines how
  /// the comparator taps the wires.
  EccScheme ecc = EccScheme::kSecded;

  int payload_states = 8;  ///< Y: size of the payload counter FSM.
  /// Minimum cycles between injections. 1 = strike every sighting (the
  /// paper's TASP; its observed ~10-cycle cadence is the retransmission
  /// round-trip, not a designed cooldown). Larger values model a stealthier
  /// duty-cycled variant (ablation).
  Cycle min_gap = 1;
  bool only_head_flits = true;  ///< DPI keys on header flits.
  PayloadPattern pattern = PayloadPattern::kDoubleDetectable;
};

class Tasp final : public LinkFaultInjector {
 public:
  enum class State : std::uint8_t { kIdle, kActive, kAttacking };

  struct Stats {
    std::uint64_t flits_inspected = 0;
    std::uint64_t target_sightings = 0;
    std::uint64_t injections = 0;
  };

  explicit Tasp(TaspParams params);

  /// The externally driven backdoor kill switch. Off = dormant (idle), and
  /// logic testing cannot accidentally reveal the trojan.
  void set_kill_switch(bool on) noexcept { killsw_ = on; }
  [[nodiscard]] bool kill_switch() const noexcept { return killsw_; }

  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] int payload_state() const noexcept { return payload_state_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const TaspParams& params() const noexcept { return params_; }

  /// Install the trace tap plus the implant site's link identity (source
  /// router + direction code) so trigger/FSM events land on that track.
  void set_trace(trace::Tap tap, std::uint16_t node, std::int8_t port) {
    tap_ = tap;
    trace_node_ = node;
    trace_port_ = port;
  }

  /// True when the wire word matches the tuned target (the comparator
  /// output, exposed for tests and the detection-probability benches).
  [[nodiscard]] bool matches(std::uint64_t wire_word) const noexcept;

  /// The two (or one/three, per pattern) codeword wire positions the XOR
  /// tree would flip in the given payload state. Exposed for tests.
  [[nodiscard]] std::vector<unsigned> payload_wires(int state) const;

  // --- LinkFaultInjector ---
  void on_traverse(Cycle now, LinkPhit& phit) override;
  /// A dormant or untargeted trojan never answers BIST probes.
  void probe(Codeword72& cw) const override { (void)cw; }
  [[nodiscard]] std::string name() const override { return "tasp"; }

 private:
  friend struct htnoc::verify::StateCodec;

  [[nodiscard]] int flips_per_injection() const noexcept {
    switch (params_.pattern) {
      case PayloadPattern::kSingleCorrectable: return 1;
      case PayloadPattern::kTripleSdc: return 3;
      case PayloadPattern::kDoubleDetectable:
      default: return 2;
    }
  }

  TaspParams params_;
  ecc::CodecDispatch codec_;  ///< The link code the comparator taps through.
  bool killsw_ = false;
  State state_ = State::kIdle;
  int payload_state_ = 0;
  Cycle last_injection_ = 0;
  bool injected_once_ = false;
  std::vector<unsigned> tap_wires_;  ///< Wires the XOR tree can reach.
  trace::Tap tap_;
  std::uint16_t trace_node_ = 0;
  std::int8_t trace_port_ = -1;
  Stats stats_;
};

}  // namespace htnoc::trojan
