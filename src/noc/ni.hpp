// Network interface (NI): the injection/ejection endpoint for one core.
//
// Injection uses the same OutputUnit + link machinery as a router output
// port (ECC, retransmission, credits), so a trojan attached to a local link
// is handled uniformly. The injection queue in front of it is the paper's
// "injection port"; Fig. 11/12 classify routers by how many of their cores'
// injection queues are full.
//
// Under TDM QoS each domain owns its own source queue and VC-allocation
// cursor so a wedged domain cannot head-of-line-block the other (the
// SurfNoC-style non-interference Fig. 12a depends on).
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "common/config.hpp"
#include "noc/input_unit.hpp"
#include "noc/output_unit.hpp"
#include "noc/pool.hpp"
#include "noc/protocol.hpp"

namespace htnoc::verify {
struct StateCodec;  // snapshot/restore (src/verify/snapshot.cpp)
}

namespace htnoc {

class NetworkInterface {
 public:
  /// Invoked when a packet fully reassembles at its destination.
  using DeliveryCallback =
      std::function<void(Cycle now, const PacketInfo& info, Cycle latency)>;

  struct Stats {
    std::uint64_t packets_injected = 0;
    std::uint64_t packets_delivered = 0;
    std::uint64_t flits_delivered = 0;
    std::uint64_t inject_rejects = 0;  ///< try_inject refused: queue full.
  };

  /// `counts` is the NI's two words of the network's in-flight array:
  /// phits on the ejection link, credits and ACK/NACKs on the injection
  /// link, which the network keeps bound to those links.
  NetworkInterface(const NocConfig& cfg, NodeId core,
                   const PortCounts* counts)
      : cfg_(cfg),
        core_(core),
        counts_(counts),
        out_(cfg),
        in_(cfg, kInvalidRouter, /*port=*/-1) {
    HTNOC_EXPECT(counts != nullptr);
  }

  void set_delivery_callback(DeliveryCallback cb) { on_delivery_ = std::move(cb); }

  /// Install (or clear) the flit-accounting observer (see FlitAuditObserver).
  void set_audit(FlitAuditObserver* audit) { audit_ = audit; }

  /// Queue a packet for injection. Atomic: either all flits fit in the
  /// (per-domain) source queue or the call is rejected (the paper's "core
  /// full" state).
  bool try_inject(Cycle now, const PacketInfo& info,
                  const std::vector<std::uint64_t>& payload);

  /// Flits waiting at the injection port (source queues + retransmission
  /// buffer of the local link) — the paper's injection-port utilization.
  [[nodiscard]] int injection_occupancy() const {
    int n = out_.occupancy();
    for (const auto& s : streams_) n += static_cast<int>(s.queue.size());
    return n;
  }

  /// True while the injection port is refusing work: the last try_inject
  /// bounced and nothing has been accepted since (the paper's "core full"
  /// deadlock condition for Figs. 11/12).
  [[nodiscard]] bool injection_full() const { return saturated_; }

  /// Drain phase of the two-phase step (see Router::drain): pops only the
  /// links whose words are non-zero.
  void drain(Cycle now);
  /// Compute phase: control, ejection, injection, LT over the staged
  /// messages. Delivery effects that touch shared state — the audit
  /// observer and the delivery callback, both of which reach into
  /// traffic-layer/auditor state owned by the main thread — are staged
  /// per-NI; the network flushes them in core order (flush_ejections).
  void compute(Cycle now);
  /// Invoke the staged audit/delivery notifications in ejection order.
  /// Called by Network::step on the main thread, NIs in core order, which
  /// reproduces the serial interleaved call sequence exactly (delivery
  /// callbacks never feed back into same-cycle NI state: replies go to the
  /// generator backlog and inject on a later generator step).
  void flush_ejections(Cycle now);

  /// Active-set check (see Router::has_work): false only when stepping
  /// would be a no-op — both in-flight words zero (no phit inbound on the
  /// ejection link, no credit/ACK inbound on the injection link), empty
  /// source queues, no retransmission slots and no buffered ejection flits.
  [[nodiscard]] bool has_work() const {
    if ((counts_->phits | counts_->control) != 0) return true;
    return injection_occupancy() != 0 || in_.occupancy() != 0;
  }

  /// The NI's in-flight words (read-only; the links keep them).
  [[nodiscard]] const PortCounts& counts() const noexcept { return *counts_; }

  /// Purge pass over the ejection input (run before purge_injection so the
  /// buffered-uid set is complete).
  [[nodiscard]] InputUnit::PurgeResult purge_ejection(Cycle now, PacketId p) {
    return in_.purge_packet(now, p);
  }
  /// Purge pass over the source queues and local-link retransmission buffer.
  /// `buffered_uids` must be sorted ascending (see OutputUnit::purge_packet).
  /// Appends purged flit uids to `removed_uids` when non-null.
  int purge_injection(PacketId p,
                      const std::vector<std::uint64_t>& buffered_uids,
                      std::vector<std::uint64_t>* removed_uids = nullptr);

  /// Install the trace tap: injection block/unblock transitions plus the
  /// NI-side ECC/retransmission machinery, filed under this core's track.
  void set_trace(trace::Tap tap) {
    tap_ = tap;
    out_.set_trace(tap, trace::Scope::kCore, core_, /*port=*/-1);
    in_.set_trace(tap, trace::Scope::kCore, core_);
  }

  /// Audit walk: call `fn(flit)` for every flit waiting in the source
  /// queues. The injection-port OutputUnit and ejection-port InputUnit are
  /// walked separately by the network.
  template <class Fn>
  void for_each_queued(Fn&& fn) const {
    for (const auto& s : streams_) {
      for (const Flit& f : s.queue) fn(f);
    }
  }

  /// Audit census: append every flit waiting in the source queues.
  void collect_source_resident(std::vector<ResidentFlit>& out) const {
    for_each_queued([&](const Flit& f) {
      out.push_back(
          {f.flit_uid(), f.packet, FlitSite::kNiSourceQueue, core_, -1});
    });
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] NodeId core() const noexcept { return core_; }
  [[nodiscard]] OutputUnit& injection_port() noexcept { return out_; }
  [[nodiscard]] InputUnit& ejection_port() noexcept { return in_; }
  [[nodiscard]] const OutputUnit& injection_port() const noexcept {
    return out_;
  }
  [[nodiscard]] const InputUnit& ejection_port() const noexcept { return in_; }

 private:
  friend struct htnoc::verify::StateCodec;

  /// Per-domain injection stream (index 0 also serves non-TDM operation).
  struct DomainStream {
    pool::Ring<Flit> queue;  ///< Contiguous source queue (src/noc/pool.hpp).
    int out_vc = -1;                      ///< VC held by the streaming packet.
    PacketId packet = kInvalidPacket;     ///< Packet holding that VC.
  };

  [[nodiscard]] DomainStream& stream_of(TdmDomain d) {
    return streams_[cfg_.tdm_enabled && d == TdmDomain::kD2 ? 1 : 0];
  }

  void step_injection(Cycle now);
  void step_domain_injection(Cycle now, DomainStream& s);
  void step_ejection(Cycle now);

  /// One delivered flit's deferred shared-state effects (see compute()).
  /// `audit_calls` is normally 1; the DOUBLE_DELIVER mutation stages the
  /// duplicated observer call so the self-test still fires under staging.
  struct PendingEjection {
    Flit flit;
    std::uint8_t audit_calls = 1;
    bool deliver_tail = false;  ///< Invoke the delivery callback.
  };

  const NocConfig& cfg_;
  NodeId core_;
  const PortCounts* counts_;
  OutputUnit out_;  ///< Toward the router's local input port.
  InputUnit in_;    ///< From the router's local output port.
  std::array<DomainStream, 2> streams_;
  std::vector<PendingEjection> pending_ejections_;
  bool saturated_ = false;  ///< Last try_inject was rejected.
  trace::Tap tap_;
  DeliveryCallback on_delivery_;
  FlitAuditObserver* audit_ = nullptr;
  Stats stats_;
};

}  // namespace htnoc
