// Output port of a router (or network interface): downstream-VC credit and
// allocation state, the retransmission buffer (paper Fig. 5, output-buffer
// variant), the L-Ob obfuscation attachment point, ECC encoding and link
// transmission (ST -> LT boundary).
//
// The retransmission buffer is stored struct-of-arrays (docs/PERFORMANCE.md):
// the per-cycle scans — slot selection, TDM quota counting, the blocked()
// saturation probe, ACK matching — read a compact SlotMeta lane, while the
// full Flit and obfuscation tag live in a parallel payload lane touched only
// when a slot actually transmits or retires.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/expect.hpp"
#include "ecc/codec.hpp"
#include "noc/hooks.hpp"
#include "noc/link.hpp"
#include "noc/obfuscation.hpp"

namespace htnoc::verify {
struct StateCodec;  // snapshot/restore (src/verify/snapshot.cpp)
}

namespace htnoc {

class OutputUnit {
 public:
  struct Stats {
    std::uint64_t flits_accepted = 0;
    std::uint64_t transmissions = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t acks = 0;
    std::uint64_t nacks = 0;
    std::uint64_t obfuscated_sends = 0;
    std::uint64_t reorder_holds = 0;  ///< kReorder scheduling deferrals.
    Cycle last_successful_lt = 0;  ///< Cycle of the most recent ACK.
  };

  /// Cycles a kReorder-tagged flit is held so later flits overtake it.
  static constexpr Cycle kReorderHold = 3;

  explicit OutputUnit(const NocConfig& cfg)
      : cfg_(cfg),
        codec_(cfg.ecc_scheme),
        vc_allocated_(static_cast<std::size_t>(cfg.vcs_per_port), false),
        credits_(static_cast<std::size_t>(cfg.vcs_per_port), cfg.buffer_depth),
        last_credit_gain_(static_cast<std::size_t>(cfg.vcs_per_port), 0) {}

  void connect(Link* link) {
    HTNOC_EXPECT(link != nullptr);
    link_ = link;
  }
  void set_lob(LObController* lob) { lob_ = lob; }

  /// Install the trace tap with this unit's track identity (router port or
  /// NI core).
  void set_trace(trace::Tap tap, trace::Scope scope, std::uint16_t node,
                 std::int8_t port) {
    tap_ = tap;
    trace_scope_ = scope;
    trace_node_ = node;
    trace_port_ = port;
  }

  // --- downstream VC allocation (VA stage bookkeeping) ---

  [[nodiscard]] bool vc_free(int vc) const {
    return !vc_allocated_[static_cast<std::size_t>(vc)];
  }
  void allocate_vc(int vc) {
    HTNOC_EXPECT(vc_free(vc));
    vc_allocated_[static_cast<std::size_t>(vc)] = true;
  }
  void release_vc(int vc) {
    HTNOC_EXPECT(!vc_free(vc));
    vc_allocated_[static_cast<std::size_t>(vc)] = false;
  }

  [[nodiscard]] int credits(int vc) const {
    return credits_[static_cast<std::size_t>(vc)];
  }

  // --- retransmission buffer (ST writes, LT reads) ---

  [[nodiscard]] bool has_free_slot() const {
    return static_cast<int>(meta_.size()) < total_capacity();
  }

  /// Whether a flit heading to `vc` in `domain` may enter the
  /// retransmission buffer this cycle.
  ///
  /// kOutputBuffer: one shared pool; under TDM each domain owns half of it
  /// so a wedged domain cannot starve the other (SurfNoC-style
  /// non-interference, Fig. 12a).
  /// kPerVcBuffer: dedicated slots per VC — a wedged flit confines its
  /// damage to its own VC (the paper's alternative Fig. 5 placement).
  [[nodiscard]] bool can_accept(int vc, TdmDomain domain) const {
    if (cfg_.retrans_scheme == RetransmissionScheme::kPerVcBuffer) {
      int used = 0;
      for (const SlotMeta& m : meta_) {
        if (m.vc == vc) ++used;
      }
      return used < cfg_.retrans_per_vc_depth;
    }
    if (!cfg_.tdm_enabled) return has_free_slot();
    int used = 0;
    for (const SlotMeta& m : meta_) {
      if (m.domain == domain) ++used;
    }
    // Odd depths give the spare slot to D1.
    const int quota =
        (cfg_.retrans_depth + (domain == TdmDomain::kD1 ? 1 : 0)) / 2;
    return has_free_slot() && used < quota;
  }

  [[nodiscard]] int total_capacity() const {
    return cfg_.retrans_scheme == RetransmissionScheme::kPerVcBuffer
               ? cfg_.retrans_per_vc_depth * cfg_.vcs_per_port
               : cfg_.retrans_depth;
  }
  [[nodiscard]] int occupancy() const { return static_cast<int>(meta_.size()); }

  /// Accept a flit from the crossbar (ST). Consumes one downstream credit
  /// for the flit's VC; tail flits release the output VC allocation.
  void accept(Cycle now, Flit flit, Cycle lt_eligible) {
    HTNOC_EXPECT(can_accept(flit.vc, flit.domain));
    auto& c = credits_[static_cast<std::size_t>(flit.vc)];
    HTNOC_EXPECT(c > 0);
    --c;
    if (flit.is_tail()) release_vc(flit.vc);
    // The header's VC field names the downstream VC the flit was allocated
    // to this hop (what a real router transmits, and what a VC-keyed DPI
    // trojan actually sees on the wires).
    if (flit.is_head()) {
      flit.wire = deposit_bits(flit.wire, wire::kVcPos, wire::kVcWidth, flit.vc);
    }
    SlotMeta m;
    m.packet = flit.packet;
    m.seq = flit.seq;
    m.vc = flit.vc;
    m.domain = flit.domain;
    m.state = SlotState::kWaiting;
    m.eligible = lt_eligible;
    m.entered = now;
    meta_.push_back(m);
    payload_.push_back({std::move(flit), ObfuscationTag{}});
    ++stats_.flits_accepted;
  }

  /// LT stage: try to start one link traversal this cycle — pick the
  /// oldest eligible slot, let the L-Ob controller choose its obfuscation,
  /// encode the wire word and send it.
  void step_lt(Cycle now);

  /// Drain phase of the two-phase step: pop this cycle's due credits and
  /// ACK/NACKs off the reverse channel into unit-local staging (pure pops;
  /// see Network::step). Returns true when any message is staged.
  bool drain_control(Cycle now) {
    if (link_ == nullptr) return false;
    link_->drain_credits(now, staged_credits_);
    link_->drain_acks(now, staged_acks_);
    return !staged_credits_.empty() || !staged_acks_.empty();
  }

  /// Compute phase: apply the staged credit returns and ACK/NACKs.
  void process_staged_control(Cycle now);

  /// Remove every slot of packet `p` (link-disable recovery). Credits are
  /// restored directly except for flits known to be buffered at the
  /// receiver (`buffered_uids`, which MUST be sorted ascending) — those
  /// return their credit through the normal reverse channel when the
  /// receiver purges them. Returns the number of slots removed; when
  /// `removed_uids` is non-null the purged flit uids are appended (the
  /// network-level purge accounting).
  int purge_packet(PacketId p, const std::vector<std::uint64_t>& buffered_uids,
                   std::vector<std::uint64_t>* removed_uids = nullptr);

  /// Release the VC only if currently allocated (purge recovery path).
  void release_vc_if_allocated(int vc) {
    if (!vc_free(vc)) release_vc(vc);
  }

  [[nodiscard]] bool has_packet(PacketId p) const {
    for (const SlotMeta& m : meta_) {
      if (m.packet == p) return true;
    }
    return false;
  }

  /// Audit walk: call `fn(uid, vc, in_flight)` for every retransmission
  /// slot, oldest first: its flit's uid, its downstream VC, and whether it
  /// was sent and awaits its ACK. Reads only the metadata lane.
  template <class Fn>
  void for_each_slot(Fn&& fn) const {
    for (const SlotMeta& m : meta_) {
      fn(Flit::uid_of(m.packet, m.seq), m.vc, m.state == SlotState::kInFlight);
    }
  }

  /// Audit census: append every retransmission-slot flit, labelled with
  /// the caller-supplied identity.
  void collect_resident(std::vector<ResidentFlit>& out, std::uint16_t node,
                        std::int8_t port) const {
    for (std::size_t i = 0; i < meta_.size(); ++i) {
      out.push_back({payload_[i].flit.flit_uid(), meta_[i].packet,
                     FlitSite::kRetransSlot, node, port});
    }
  }

  /// Distinct packets with at least one slot here (purge planning).
  [[nodiscard]] std::vector<PacketId> packets_in_slots() const {
    std::vector<PacketId> ids;
    for (const SlotMeta& m : meta_) {
      bool found = false;
      for (const PacketId id : ids) {
        if (id == m.packet) {
          found = true;
          break;
        }
      }
      if (!found) ids.push_back(m.packet);
    }
    return ids;
  }

  /// The paper's "port blocked" (tree-saturation) condition: either a flit
  /// has sat un-ACKed in the retransmission buffer for `stall_window`
  /// cycles (the trojan's NACK loop), or a VC has been credit-starved that
  /// long (back-pressure from a jam further downstream).
  [[nodiscard]] bool blocked(Cycle now, Cycle stall_window = 32) const {
#ifdef HTNOC_MUTATION_BLIND_SATURATION
    // Mutation self-test: the saturation detector goes blind. Routers can
    // now starve indefinitely without anything firing (verify:
    // kSilentStarvation).
    (void)now;
    (void)stall_window;
    return false;
#else
    if (link_ == nullptr) return false;
    for (const SlotMeta& m : meta_) {
      if (now >= m.entered + stall_window) return true;
    }
    for (int vc = 0; vc < cfg_.vcs_per_port; ++vc) {
      // Per VC: gains on a healthy VC must not mask a starved sibling (a
      // TDM domain jammed by the trojan while the other flows freely).
      if (credits_[static_cast<std::size_t>(vc)] == 0 &&
          now >= last_credit_gain_[static_cast<std::size_t>(vc)] +
                     stall_window) {
        return true;
      }
    }
    return false;
#endif
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] Link* link() const noexcept { return link_; }

 private:
  friend struct htnoc::verify::StateCodec;

  enum class SlotState : std::uint8_t { kWaiting, kInFlight };

  /// Scan-hot half of a retransmission slot; mirrors the identity fields of
  /// the payload flit (packet/seq/vc/domain) so selection, quota and ACK
  /// matching never touch the payload lane.
  struct SlotMeta {
    PacketId packet = kInvalidPacket;
    int seq = 0;
    Cycle eligible = 0;
    Cycle entered = 0;  ///< Cycle the flit was accepted (staleness tracking).
    int attempt = 0;
    SlotState state = SlotState::kWaiting;
    VcId vc = 0;
    TdmDomain domain = TdmDomain::kD1;
    bool escalate = false;        ///< Accumulated NACK advice.
    bool forced_plain = false;    ///< Reserved as a scramble partner; send plain.
  };
  struct SlotPayload {
    Flit flit;
    ObfuscationTag last_tag;
  };

  [[nodiscard]] int find_slot(PacketId packet, int seq, SlotState state);
  void erase_slot(std::size_t i) {
    meta_.erase(meta_.begin() + static_cast<std::ptrdiff_t>(i));
    payload_.erase(payload_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  const NocConfig& cfg_;
  ecc::CodecDispatch codec_;  ///< Scheme resolved once; no per-phit vcall.
  Link* link_ = nullptr;
  LObController* lob_ = nullptr;
  trace::Tap tap_;
  trace::Scope trace_scope_ = trace::Scope::kRouter;
  std::uint16_t trace_node_ = 0;
  std::int8_t trace_port_ = -1;
  std::vector<bool> vc_allocated_;
  std::vector<int> credits_;
  std::vector<Cycle> last_credit_gain_;  // per VC, indexed like credits_
  std::vector<CreditMsg> staged_credits_;  ///< Drained, not yet applied.
  std::vector<AckMsg> staged_acks_;        ///< Drained, not yet applied.
  // FIFO by entry (retransmissions are oldest first); parallel lanes.
  std::vector<SlotMeta> meta_;
  std::vector<SlotPayload> payload_;
  Stats stats_;
};

}  // namespace htnoc
