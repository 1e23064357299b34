// The 5-stage virtual-channel router (paper Sec. IV, Fig. 5), one cycle per
// stage:
//   BW/RC  buffer write + route computation   (InputUnit::process_staged + stage_rc)
//   VA     virtual-channel allocation          (stage_va, separable, round-robin)
//   SA     switch allocation                   (stage_sa_st, separable, round-robin)
//   ST     switch traversal into the output / retransmission buffer
//   LT     link traversal                      (OutputUnit::step_lt)
//
// Each stage visits only the ports and VCs with work: the drain pops only
// links whose in-flight words are non-zero and records which ports staged
// control or phits, RC, VA and SA walk every input's busy-VC mask, LT steps
// only the outputs holding slots, and the allocators arbitrate over request
// bit masks. Each input unit decodes the phits it receives and each output
// unit encodes the flit it sends.
//
// Port numbering: 0..3 = N,S,E,W; 4..4+concentration-1 = local ports.
#pragma once

#include <memory>
#include <vector>

#include "common/config.hpp"
#include "noc/arbiter.hpp"
#include "noc/input_unit.hpp"
#include "noc/output_unit.hpp"
#include "noc/routing.hpp"

namespace htnoc::verify {
struct StateCodec;  // snapshot/restore (src/verify/snapshot.cpp)
}

namespace htnoc {

class Router {
 public:
  struct Stats {
    std::uint64_t flits_switched = 0;  ///< Flits moved through the crossbar.
    std::uint64_t rc_computations = 0;
    std::uint64_t rc_stalls_unroutable = 0;
    std::uint64_t va_grants = 0;
    std::uint64_t va_stalls_no_free_vc = 0;  ///< All output VCs of class held.
    std::uint64_t sa_requests = 0;           ///< Input-VC switch requests.
    std::uint64_t sa_stalls_no_slot = 0;     ///< Retransmission buffer full.
    std::uint64_t sa_stalls_no_credit = 0;   ///< Downstream buffer full.

    /// Crossbar demand that lost arbitration rather than resources.
    [[nodiscard]] std::uint64_t sa_arbitration_losses() const {
      return sa_requests - flits_switched;
    }
  };

  /// `counts` is the router's block of the network's in-flight array: one
  /// PortCounts per port, which the network keeps bound to the port's
  /// input and output links.
  Router(const NocConfig& cfg, RouterId id, const RoutingFunction* routing,
         const PortCounts* counts);

  [[nodiscard]] RouterId id() const noexcept { return id_; }
  [[nodiscard]] int num_ports() const noexcept { return ports_; }

  [[nodiscard]] InputUnit& input(int port) {
    return *inputs_[static_cast<std::size_t>(port)];
  }
  [[nodiscard]] OutputUnit& output(int port) {
    return *outputs_[static_cast<std::size_t>(port)];
  }
  [[nodiscard]] const InputUnit& input(int port) const {
    return *inputs_[static_cast<std::size_t>(port)];
  }
  [[nodiscard]] const OutputUnit& output(int port) const {
    return *outputs_[static_cast<std::size_t>(port)];
  }

  /// Install the receiver-side threat detector on every input port.
  void set_detector(ThreatDetector* det);
  /// Install an L-Ob controller on one output port.
  void set_lob(int port, LObController* lob);
  /// Install the trace tap on every input and output unit.
  void set_trace(trace::Tap tap);
  /// Swap the routing function (Ariadne-style reconfiguration).
  void set_routing(const RoutingFunction* routing) { routing_ = routing; }

  /// Packets whose front stream is committed (kActive) to `out_port` on any
  /// input — these must be purged when that output's link is disabled.
  [[nodiscard]] std::vector<PacketId> active_packets_to(int out_port) const;

  /// Send every routed-but-unallocated (kWaitVA) stream back through route
  /// computation — called after a routing reconfiguration so stale
  /// decisions do not aim at disabled links.
  void invalidate_waiting_routes();

  /// Drain phase of the two-phase step: pop due reverse-channel messages
  /// and phit arrivals into unit staging, visiting only the ports whose
  /// in-flight words are non-zero, and note which ports staged anything.
  /// Pure pops; safe to run concurrently with other routers'/NIs' drains
  /// (each queue and each word has exactly one drainer — see
  /// Network::step).
  void drain(Cycle now);
  /// Compute phase: control, arrivals, RC, VA, SA/ST, LT over the staged
  /// messages (control and arrivals only on the ports drain() noted). All
  /// link interactions are pushes (single writer).
  void compute(Cycle now);

  /// Active-set check: false only when stepping would provably be a no-op —
  /// every in-flight word of the block is zero (no phit on any input link,
  /// no credit/ACK on any output link) and no input VC, scramble station or
  /// retransmission buffer holds a flit. Stepping an idle router touches no
  /// state (arbiters advance only on grants), so skipping it is bit-exact.
  /// Streams holding an output VC with nothing buffered wake via their
  /// input link's in-flight phits.
  [[nodiscard]] bool has_work() const {
    std::uint32_t queued = slot_outputs_;
    for (int p = 0; p < ports_; ++p) {
      queued |= counts_[p].phits | counts_[p].control;
    }
    if (queued != 0) return true;
    for (const auto& in : inputs_) {
      if (in->occupancy() != 0) return true;
    }
    return false;
  }

  /// Port `port`'s in-flight words (read-only; the links keep them).
  [[nodiscard]] const PortCounts& counts(int port) const {
    return counts_[port];
  }

  /// Bit p set iff output p holds a retransmission slot.
  [[nodiscard]] std::uint32_t slot_outputs() const noexcept {
    return slot_outputs_;
  }
  /// Recompute slot_outputs() from the outputs. Derived state: ST sets a
  /// bit and control processing clears it as slots are taken and freed; a
  /// purge (Network::purge_packet) and a snapshot load change outputs
  /// behind the stages' back and resync.
  void sync_slot_outputs();

  // --- paper metrics ---

  /// Total flits buffered across all input ports.
  [[nodiscard]] int input_occupancy() const;
  /// Total flits held in output/retransmission buffers.
  [[nodiscard]] int output_occupancy() const;
  /// True when at least one inter-router output port is blocked (full
  /// retransmission buffer with no ACK progress).
  [[nodiscard]] bool any_port_blocked(Cycle now) const;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  friend struct htnoc::verify::StateCodec;

  void stage_rc();
  void stage_va(Cycle now);
  void stage_sa_st(Cycle now);

  [[nodiscard]] int va_arbiter_index(int out_port, int out_vc) const {
    return out_port * cfg_.vcs_per_port + out_vc;
  }
  [[nodiscard]] int requester_index(int in_port, int in_vc) const {
    return in_port * cfg_.vcs_per_port + in_vc;
  }

  const NocConfig& cfg_;
  RouterId id_;
  int ports_;
  const RoutingFunction* routing_;
  const PortCounts* counts_;  ///< One per port; see the constructor.

  std::vector<std::unique_ptr<InputUnit>> inputs_;
  std::vector<std::unique_ptr<OutputUnit>> outputs_;

  // VA: one arbiter per (out_port, out_vc) over all (in_port, in_vc).
  std::vector<RoundRobinArbiter> va_arbiters_;
  // SA stage 1: one arbiter per input port over its VCs.
  std::vector<RoundRobinArbiter> sa_input_arbiters_;
  // SA stage 2: one arbiter per output port over input ports.
  std::vector<RoundRobinArbiter> sa_output_arbiters_;

  // --- persistent per-cycle scratch (docs/PERFORMANCE.md) ---
  // The allocator stages reuse these arenas every cycle instead of
  // re-allocating request masks. All are transient within one step and
  // never serialized; the masks are all-zero between steps.
  int va_words_ = 1;  ///< 64-bit words per VA request row.
  /// VA request rows, va_words_ words per arbiter: bit requester_index of
  /// row va_arbiter_index is set when that input VC bids for that output VC.
  std::vector<std::uint64_t> va_req_;
  std::vector<std::uint64_t> va_pending_;  ///< Arbiters with a request.
  std::vector<int> sa_winner_vc_;          ///< SA stage-1 winner per input.
  std::vector<std::uint32_t> sa_out_req_;  ///< SA stage-2 bids per output.
  std::uint32_t ctrl_ports_ = 0;  ///< Outputs that staged credits/ACKs.
  std::uint32_t bw_ports_ = 0;    ///< Inputs that staged phits.
  std::uint32_t slot_outputs_ = 0;  ///< See slot_outputs().

  Stats stats_;
};

}  // namespace htnoc
