// The complete NoC fabric: routers, inter-router links, local links and
// network interfaces, plus the aggregate utilization metrics the paper's
// Figs. 11/12 sample. The fabric is the 2-D mesh NocConfig describes
// (concentrated or plain): links are wired in MeshGeometry::links() order
// and routing defaults to x-y. Everything below this class is
// fabric-agnostic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/geometry.hpp"
#include "noc/link.hpp"
#include "noc/ni.hpp"
#include "noc/router.hpp"
#include "noc/routing.hpp"
#include "noc/updown.hpp"

namespace htnoc::verify {
struct StateCodec;  // snapshot/restore (src/verify/snapshot.cpp)
}

namespace htnoc {

class StepPool;

class Network {
 public:
  /// Snapshot of the buffer-utilization metrics plotted in Figs. 11/12.
  struct UtilizationSample {
    Cycle cycle = 0;
    int input_port_flits = 0;      ///< Flits in router input buffers.
    int output_port_flits = 0;     ///< Flits in retransmission buffers.
    int injection_port_flits = 0;  ///< Flits queued at NIs.
    int routers_all_cores_full = 0;
    int routers_majority_cores_full = 0;  ///< > 50% of local cores full.
    int routers_with_blocked_port = 0;
  };

  explicit Network(const NocConfig& cfg);
  ~Network();  ///< Out-of-line: owns the (forward-declared) StepPool.

  [[nodiscard]] const MeshGeometry& geometry() const noexcept { return geom_; }
  [[nodiscard]] const NocConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] Cycle now() const noexcept { return now_; }

  /// Advance the whole network by one clock cycle.
  ///
  /// Runs as two phases over all routers and NIs. Phase 1 evaluates the
  /// active set (cfg.active_step) against the cycle-start fixed point and
  /// drains every due link message into unit-local staging; phase 2 runs
  /// each active unit's full pipeline over the staged input. Because link
  /// traversal and the reverse channel each take exactly one cycle,
  /// nothing sent during a cycle is visible within it — so with
  /// cfg.step_threads > 1 the phases shard across a persistent worker pool
  /// (contiguous router/NI ranges; one dispatch per cycle, with the
  /// drain→compute barrier inside the pool) and the result is bit-identical
  /// to serial: every deque has one drainer in phase 1 and one writer in
  /// phase 2, trace events stage per shard and merge in unit order, and
  /// delivery/audit callbacks stage per NI and flush in core order on the
  /// calling thread. See docs/SCALING.md and docs/ARCHITECTURE.md §11.
  void step();
  void run(Cycle cycles) {
    for (Cycle i = 0; i < cycles; ++i) step();
  }

  /// Active-set stepping accounting: units stepped vs provably-idle units
  /// skipped (cfg.active_step). With active_step off, skips stay zero.
  struct StepStats {
    std::uint64_t router_steps = 0;
    std::uint64_t router_skips = 0;
    std::uint64_t ni_steps = 0;
    std::uint64_t ni_skips = 0;
  };
  [[nodiscard]] const StepStats& step_stats() const noexcept {
    return step_stats_;
  }

  // --- traffic-facing API ---

  [[nodiscard]] PacketId next_packet_id() noexcept { return next_packet_id_++; }
  /// Read-only view of the id the next injection will receive (so tooling
  /// can pick a random live packet without consuming an id).
  [[nodiscard]] PacketId peek_next_packet_id() const noexcept {
    return next_packet_id_;
  }

  /// Inject a packet at its source core's NI. Returns false when the
  /// injection queue cannot take the whole packet.
  bool try_inject(const PacketInfo& info, const std::vector<std::uint64_t>& payload);

  /// Register a delivery callback on every NI (replaces any previous one).
  void set_delivery_callback(NetworkInterface::DeliveryCallback cb);

  // --- topology access ---

  [[nodiscard]] Router& router(RouterId r) {
    return *routers_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] NetworkInterface& ni(NodeId core) {
    return *nis_[static_cast<std::size_t>(core)];
  }
  /// The unidirectional inter-router link leaving `from` in direction `dir`.
  [[nodiscard]] Link& link(RouterId from, Direction dir);
  [[nodiscard]] bool has_link(RouterId from, Direction dir) const;
  /// All inter-router links, in MeshGeometry::links() order.
  [[nodiscard]] std::vector<LinkRef> all_links() const;

  /// Disable a link and (lazily) mark the routing as needing reconfiguration.
  void disable_link(const LinkRef& l);

  /// True when disabling `l` (bidirectionally, on top of the already
  /// disabled set) would disconnect the mesh — i.e. up*/down*
  /// reconfiguration would be impossible and the link must stay in service.
  [[nodiscard]] bool would_disconnect(const LinkRef& l) const;

  /// Remove every flit of packet `p` from the whole network — buffers,
  /// retransmission slots, links in flight, NI queues — restoring credits
  /// and VC allocations. This is the recovery step of link-disable
  /// rerouting: packets stranded toward a disabled link are purged and
  /// re-injected end-to-end by the traffic layer. Scrambled flits whose
  /// partner is purged become unrecoverable; their packets are purged too
  /// (ids appended to the return value). Returns all purged packet ids.
  std::vector<PacketId> purge_packet(PacketId p);

  /// Flits of `p` anywhere in the network (for tests).
  [[nodiscard]] bool packet_in_flight(PacketId p) const;

  /// Cumulative purge accounting: packets purged and the distinct flits
  /// actually removed (buffers + retransmission slots + in-flight phits +
  /// NI queues, deduplicated by flit uid).
  struct PurgeTotals {
    std::uint64_t packets = 0;
    std::uint64_t flits = 0;
  };
  [[nodiscard]] const PurgeTotals& purge_totals() const noexcept {
    return purge_totals_;
  }

  /// Install (or clear, with nullptr) the flit-accounting observer:
  /// distributes it to every NI (injection/delivery events) and notifies it
  /// of every purge. See FlitAuditObserver / verify::NetworkInvariantAuditor.
  void set_audit(FlitAuditObserver* audit);

  /// Audit census: append every flit currently resident anywhere in the
  /// fabric — router input buffers and scramble stations, retransmission
  /// slots, link phits, NI source queues and ejection buffers. A flit may
  /// appear at several sites (see ResidentFlit). The auditor's reporting
  /// path: a clean audit stamps the same flits through audit_walk.
  void collect_resident(std::vector<ResidentFlit>& out) const;

  /// Reusable scratch of the credit tally (see audit_walk): one hop's
  /// credit terms per VC and its receiver's buffered uids. The caller owns
  /// it, so a walk allocates nothing once the buffers have grown.
  struct CreditTally {
    struct Terms {
      int wire = 0;       ///< Credits on the reverse wire.
      int slots = 0;      ///< Retransmission slots.
      int stationed = 0;  ///< Scramble-station holds at the receiver.
      int overlap = 0;    ///< In-flight slots the receiver also buffers.
    };
    std::vector<Terms> vc;
    std::vector<std::uint64_t> receiver_uids;
  };

  /// The audit walk: one pass over the hop table that hands `v` the uid of
  /// every entry collect_resident lists, as v.flit(uid), and every router
  /// input unit, as v.router_input(in), once each, and tallies every wired
  /// hop's credit terms on the way. Returns true exactly when
  /// check_invariants() returns empty. Each unit belongs to one hop: a
  /// hop's output, link and input, an injection hop's NI source queues,
  /// and at the fabric edge, a mesh slot with no neighbour holds its
  /// router's output and input toward the edge.
  template <class Visitor>
  bool audit_walk(Visitor& v, CreditTally& tally) const;

  /// Install (or clear, with nullptr) the trace sink: distributes an
  /// identity-stamped tap to every link, router unit and NI, and enables
  /// the per-cycle saturation-wavefront scan when that category is on.
  void set_trace(trace::TraceSink* sink);

  /// Verify the credit-conservation invariant on every (link, VC): for
  /// each hop, buffer_depth equals the upstream credit counter plus credits
  /// on the reverse wire plus occupied resources (retransmission slots and
  /// receiver buffers, with ACK-in-flight overlap removed). Returns an
  /// empty string when consistent, else a description of the first
  /// violation in hop-table order. Built on audit_walk's tally; the auditor
  /// calls it for the text once its walk finds a hop that does not balance.
  [[nodiscard]] std::string check_invariants() const;
  [[nodiscard]] const std::set<LinkRef>& disabled_links() const noexcept {
    return disabled_;
  }

  // --- routing control ---

  /// Switch every router back to the default x-y routing (only valid with
  /// no disabled links).
  void use_xy_routing();
  /// Switch to West-First adaptive routing with live congestion feedback
  /// (only valid with no disabled links).
  void use_west_first_routing();
  /// Recompute up*/down* tables around the currently disabled links and
  /// switch every router to them (the Ariadne-style reconfiguration).
  void use_updown_routing();
  [[nodiscard]] const RoutingFunction& routing() const { return *routing_; }

  // --- mitigation wiring ---

  void set_detector(RouterId r, ThreatDetector* det) {
    router(r).set_detector(det);
  }
  void set_lob(RouterId r, int port, LObController* lob) {
    router(r).set_lob(port, lob);
  }

  // --- paper metrics ---

  [[nodiscard]] UtilizationSample sample_utilization() const;

  /// Total packets delivered across all NIs.
  [[nodiscard]] std::uint64_t packets_delivered() const;
  [[nodiscard]] std::uint64_t packets_injected() const;

  /// True when every flit has drained: no buffered flits anywhere, no
  /// in-flight phits, empty injection queues.
  [[nodiscard]] bool quiescent() const;

 private:
  friend struct htnoc::verify::StateCodec;

  /// Which routing installer is active — snapshot/restore re-runs the same
  /// installer on the restored `disabled_` set instead of serializing the
  /// routing tables themselves (they are a pure function of topology +
  /// disabled links).
  enum class RoutingMode : std::uint8_t { kDefault, kWestFirst, kUpDown };

  /// Emit router blocked/unblocked transitions (kSaturation category). Runs
  /// after ++now_ so its view matches sample_utilization at the same cycle.
  void trace_saturation();
  /// One link with the output that sends on it and the input that receives
  /// from it, plus its identity: the source router and direction port of
  /// a mesh link, or the core and trace::kLinkPortInjection /
  /// kLinkPortEjection of a local link. Traces, the census and the
  /// credit check all file the hop under that identity. A mesh slot with
  /// no neighbour is left unwired; its link never carries anything, so
  /// walks that only read or clear phits need not skip it.
  struct Hop {
    Link link;
    OutputUnit* out = nullptr;  ///< Null when unwired.
    InputUnit* in = nullptr;
    std::uint16_t node = 0;
    std::int8_t port = 0;

    [[nodiscard]] bool wired() const noexcept { return out != nullptr; }
    /// `r4->N`, `inj.c3` or `ej.c3`. Built only to report an error.
    [[nodiscard]] std::string name() const;
  };

  /// One wired hop of the audit walk: hands `on_flit(uid)` every flit in
  /// the receiver's buffers and the sender's slots, and tallies the hop's
  /// credit terms into `t`, reading the reverse-wire credits, the slots
  /// and the receiver's buffers once each. Returns -1 when every VC
  /// balances, else the first VC that does not (its terms are in `t`).
  template <class OnFlit>
  int tally_hop(const Hop& h, CreditTally& t, OnFlit&& on_flit) const;

  /// Effective parallel-step shard count: cfg.step_threads clamped to the
  /// router count (and >= 1).
  [[nodiscard]] int step_shards() const noexcept;
  /// Phase 1 for units [rlo,rhi) x [clo,chi): active-set evaluation at the
  /// cycle-start fixed point, then drain.
  void drain_range(std::size_t rlo, std::size_t rhi, std::size_t clo,
                   std::size_t chi);
  /// Phase 2 for the same ranges: compute every active unit.
  void compute_range(std::size_t rlo, std::size_t rhi, std::size_t clo,
                     std::size_t chi);

  NocConfig cfg_;
  MeshGeometry geom_;
  Cycle now_ = 0;
  PacketId next_packet_id_ = 1;

  std::unique_ptr<RoutingFunction> routing_;
  RoutingMode routing_mode_ = RoutingMode::kDefault;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<NetworkInterface>> nis_;
  // Every hop: four mesh slots per router in link_index order, then each
  // core's injection hop followed by its ejection hop. Snapshot bytes, the
  // census and the credit check follow this order.
  std::vector<Hop> hops_;

  // In-flight words, one PortCounts per router port (routers ascending)
  // then one per NI; see PortCounts and Link::bind_counts. Derived state:
  // never serialized, re-derived by each link when a snapshot loads. Each
  // word has one raiser (its link's pusher, compute phase) and one lowerer
  // (its link's drainer, drain phase; purges run between steps).
  std::vector<PortCounts> inflight_;
  std::set<LinkRef> disabled_;
  PurgeTotals purge_totals_;
  StepStats step_stats_;
  // Reusable purge scratch (link-disable recovery purges packets in bursts;
  // the former per-packet std::set allocations dominated its cost).
  std::vector<std::uint64_t> purge_buffered_scratch_;
  std::vector<std::uint64_t> purge_removed_scratch_;
  trace::Tap tap_;
  FlitAuditObserver* audit_ = nullptr;
  std::vector<char> router_blocked_;  ///< Last traced blocked state.

  // Parallel-step state. The active bitmaps are written by phase 1 (each
  // shard its own range) and tallied into step_stats_ on the main thread;
  // the event buffers hold each shard's staged trace records (router-range
  // and NI-range separately so the merge reproduces the serial router-0..N,
  // NI-0..M emission order).
  std::vector<char> router_active_;
  std::vector<char> ni_active_;
  std::unique_ptr<StepPool> pool_;  ///< Lazily created when step_threads > 1.
  std::vector<std::vector<trace::Event>> shard_router_events_;
  std::vector<std::vector<trace::Event>> shard_ni_events_;
};

template <class OnFlit>
int Network::tally_hop(const Hop& h, CreditTally& t, OnFlit&& on_flit) const {
  const OutputUnit& out = *h.out;
  const InputUnit& in = *h.in;
  const int vcs = cfg_.vcs_per_port;
  const int depth = cfg_.buffer_depth;
  // An idle hop (no retransmission slot, nothing on the reverse channel,
  // nothing buffered at the receiver) holds each VC's whole budget in its
  // credit counter. Any other hop, or an idle one that fails, takes the
  // tally below.
  if (out.occupancy() == 0 && h.link.control_queued() == 0 &&
      in.occupancy() == 0) {
    bool full = true;
    for (int vc = 0; vc < vcs && full; ++vc) full = out.credits(vc) == depth;
    if (full) {
      in.for_each_buffered([&](const Flit& f, bool) { on_flit(f.flit_uid()); });
      return -1;
    }
  }
  t.vc.assign(static_cast<std::size_t>(vcs), {});
  t.receiver_uids.clear();
  in.for_each_buffered([&](const Flit& f, bool stationed) {
    const std::uint64_t uid = f.flit_uid();
    on_flit(uid);
    t.receiver_uids.push_back(uid);
    if (stationed) ++t.vc[f.vc].stationed;
  });
  // A sent slot whose flit the receiver already buffers (its ACK is on
  // the way back) holds one credit twice; count it once.
  out.for_each_slot([&](std::uint64_t uid, VcId vc, bool in_flight) {
    on_flit(uid);
    ++t.vc[vc].slots;
    if (in_flight && std::find(t.receiver_uids.begin(), t.receiver_uids.end(),
                               uid) != t.receiver_uids.end()) {
      ++t.vc[vc].overlap;
    }
  });
  h.link.for_each_pending_credit([&](VcId vc) { ++t.vc[vc].wire; });
  for (int vc = 0; vc < vcs; ++vc) {
    const CreditTally::Terms& x = t.vc[static_cast<std::size_t>(vc)];
    if (out.credits(vc) + x.wire + x.slots + in.vcbuf(vc).occupancy +
            x.stationed - x.overlap !=
        depth) {
      return vc;
    }
  }
  return -1;
}

template <class Visitor>
bool Network::audit_walk(Visitor& v, CreditTally& tally) const {
  const auto flit = [&v](const Flit& f) { v.flit(f.flit_uid()); };
  const auto uid = [&v](std::uint64_t u) { v.flit(u); };
  const std::size_t mesh = routers_.size() * 4;
  bool balanced = true;
  for (std::size_t i = 0; i < hops_.size(); ++i) {
    const Hop& h = hops_[i];
    h.link.for_each_phit(flit);
    if (!h.wired()) {
      // Mesh slot `i` is router i / 4's direction port i % 4 (link_index).
      const Router& rt = *routers_[i / 4];
      const int port = static_cast<int>(i % 4);
      rt.output(port).for_each_slot(
          [&v](std::uint64_t u, VcId, bool) { v.flit(u); });
      rt.input(port).for_each_buffered(
          [&v](const Flit& f, bool) { v.flit(f.flit_uid()); });
      v.router_input(rt.input(port));
      continue;
    }
    const bool injection = h.port == trace::kLinkPortInjection;
    if (injection) nis_[h.node]->for_each_queued(flit);
    if (tally_hop(h, tally, uid) >= 0) balanced = false;
    if (i < mesh || injection) v.router_input(*h.in);
  }
  return balanced;
}

}  // namespace htnoc
