#include "sim/simulator.hpp"

#include "common/expect.hpp"

namespace htnoc::sim {

std::string to_string(MitigationMode m) {
  switch (m) {
    case MitigationMode::kNone: return "none";
    case MitigationMode::kLOb: return "lob";
    case MitigationMode::kReroute: return "reroute";
  }
  return "?";
}

MitigationMode mitigation_mode_from_string(const std::string& s) {
  if (s == "none") return MitigationMode::kNone;
  if (s == "lob") return MitigationMode::kLOb;
  if (s == "reroute") return MitigationMode::kReroute;
  throw ContractViolation("unknown mitigation mode: " + s +
                          " (expected none/lob/reroute)");
}

Simulator::Simulator(SimConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.trace.enabled) {
    trace_sink_ = std::make_unique<trace::TraceSink>(cfg_.trace);
  }
  const trace::Tap tap(trace_sink_.get());

  net_ = std::make_unique<Network>(cfg_.noc);
  if (trace_sink_) net_->set_trace(trace_sink_.get());
  if (cfg_.audit.enabled) {
    auditor_ =
        std::make_unique<verify::NetworkInvariantAuditor>(*net_, cfg_.audit);
    auditor_->set_trace_sink(trace_sink_.get());
    net_->set_audit(auditor_.get());
  }
  const MeshGeometry& geom = net_->geometry();

  // Background transient faults.
  if (cfg_.transient_phit_fault_prob > 0.0) {
    std::uint64_t salt = 0;
    for (const LinkRef& l : net_->all_links()) {
      TransientFaultInjector::Params tp;
      tp.phit_fault_prob = cfg_.transient_phit_fault_prob;
      net_->link(l.from, l.dir)
          .attach_injector(std::make_shared<TransientFaultInjector>(
              tp, cfg_.seed ^ (0x7ea5'0000 + salt++)));
    }
  }

  // Permanent stuck-at faults.
  for (const auto& [l, stuck] : cfg_.permanent_faults) {
    net_->link(l.from, l.dir)
        .attach_injector(std::make_shared<PermanentFaultInjector>(stuck));
  }

  // Trojan implants (kill switches start off; the schedule enables them).
  for (const AttackSpec& a : cfg_.attacks) {
    auto t = std::make_shared<trojan::Tasp>(a.tasp);
    t->set_trace(tap, a.link.from,
                 static_cast<std::int8_t>(direction_port(a.link.dir)));
    net_->link(a.link.from, a.link.dir).attach_injector(t);
    trojans_.push_back(std::move(t));
  }

  // Mitigation wiring.
  if (cfg_.mode != MitigationMode::kNone) {
    detectors_.resize(static_cast<std::size_t>(geom.num_routers()));
    for (RouterId r = 0; r < geom.num_routers(); ++r) {
      auto det =
          std::make_unique<mitigation::RouterThreatDetector>(cfg_.detector);
      det->set_trace(tap, static_cast<std::uint16_t>(r));
      // Give the detector each inter-router input port's link for BIST.
      for (int port = 0; port < 4; ++port) {
        if (Link* l = net_->router(r).input(port).link()) {
          det->set_port_link(port, l);
        }
      }
      if (cfg_.mode == MitigationMode::kReroute) {
        det->set_classification_callback(
            [this, r](int port, mitigation::LinkThreatClass cls) {
              (void)cls;
              pending_reroutes_.push_back(
                  {r, port, net_->now() + cfg_.reroute_latency});
            });
      }
      net_->set_detector(r, det.get());
      detectors_[static_cast<std::size_t>(r)] = std::move(det);
    }
  }
  if (cfg_.mode == MitigationMode::kLOb) {
    for (RouterId r = 0; r < geom.num_routers(); ++r) {
      for (int port = 0; port < 4; ++port) {
        if (!geom.has_neighbor(r, port_direction(port))) continue;
        auto lob = std::make_unique<mitigation::LObController>(cfg_.lob);
        lob->set_trace(tap, static_cast<std::uint16_t>(r),
                       static_cast<std::int8_t>(port));
        net_->set_lob(r, port, lob.get());
        lobs_[{r, port}] = std::move(lob);
      }
    }
  }
}

LinkRef Simulator::link_feeding(RouterId receiver, int in_port) const {
  HTNOC_EXPECT(in_port >= 0 && in_port < 4);
  const Direction d = port_direction(in_port);
  const MeshGeometry& geom = net_->geometry();
  HTNOC_EXPECT(geom.has_neighbor(receiver, d));
  return LinkRef{geom.neighbor(receiver, d), opposite(d)};
}

void Simulator::apply_kill_switch_schedule() {
  const Cycle now = net_->now();
  for (std::size_t i = 0; i < cfg_.attacks.size(); ++i) {
    if (now == cfg_.attacks[i].enable_killsw_at) {
      trojans_[i]->set_kill_switch(true);
    }
  }
}

void Simulator::process_reroute_events() {
  if (pending_reroutes_.empty()) return;
  const Cycle now = net_->now();
  std::vector<PendingReroute> mature;
  std::vector<PendingReroute> waiting;
  for (const PendingReroute& pr : pending_reroutes_) {
    (pr.ready_at <= now ? mature : waiting).push_back(pr);
  }
  pending_reroutes_ = std::move(waiting);
  if (mature.empty()) return;

  bool reconfigured = false;
  for (const auto& [receiver, port, ready_at] : mature) {
    (void)ready_at;
    const LinkRef fwd = link_feeding(receiver, port);
    // A flagged link is taken out of service in both directions, as a
    // physical-link failure would be (and as up*/down* reconfiguration
    // requires) — unless its loss would disconnect the mesh, in which case
    // rerouting is simply not an available mitigation for it and the link
    // stays in (degraded) service.
    if (net_->would_disconnect(fwd)) {
      ++stats_.reroutes_refused_disconnect;
      if (trace_sink_ != nullptr &&
          trace_sink_->wants(trace::Category::kReroute)) {
        trace::Event e = trace::make_event(
            trace::EventType::kRerouteRefused, now, trace::Scope::kLink,
            static_cast<std::uint16_t>(fwd.from),
            static_cast<std::int8_t>(direction_port(fwd.dir)));
        trace_sink_->record(e);
      }
      continue;
    }
    const LinkRef rev{receiver, opposite(fwd.dir)};
    for (const LinkRef& l : {fwd, rev}) {
      if (net_->disabled_links().contains(l)) continue;
      net_->disable_link(l);
      ++stats_.links_disabled;

      // Every packet with a flit parked in the dead output's retransmission
      // buffer, or committed to it from an input VC, is stranded: purge it
      // network-wide and hand it back to the traffic layer for end-to-end
      // re-injection.
      Router& from = net_->router(l.from);
      const int out_port = direction_port(l.dir);
      std::vector<PacketId> victims = from.output(out_port).packets_in_slots();
      for (const PacketId p : from.active_packets_to(out_port)) {
        victims.push_back(p);
      }
      std::set<PacketId> unique(victims.begin(), victims.end());
      for (const PacketId victim : unique) {
        if (!net_->packet_in_flight(victim)) continue;  // already purged
        for (const PacketId dropped : net_->purge_packet(victim)) {
          ++stats_.packets_purged;
          if (on_drop_) on_drop_(dropped);
        }
      }
      reconfigured = true;
    }
  }
  // Purge accounting: the network deduplicates flits per purged packet, so
  // its totals are the exact flit count (not the per-packet approximation
  // this counter used to hold).
  stats_.flits_purged_total = net_->purge_totals().flits;

  if (reconfigured) {
    // Stale routed-but-unallocated decisions must not aim at dead links.
    for (RouterId r = 0; r < net_->geometry().num_routers(); ++r) {
      net_->router(r).invalidate_waiting_routes();
    }
    net_->use_updown_routing();
    ++stats_.routing_reconfigurations;
    if (trace_sink_ != nullptr &&
        trace_sink_->wants(trace::Category::kReroute)) {
      trace::Event e = trace::make_event(trace::EventType::kRoutingReconfigured,
                                         now, trace::Scope::kNetwork, 0);
      e.arg = static_cast<std::uint64_t>(stats_.links_disabled);
      trace_sink_->record(e);
    }
  }
}

void Simulator::step() {
  apply_kill_switch_schedule();
  if (cfg_.mode == MitigationMode::kReroute) process_reroute_events();
  net_->step();
  if (auditor_) auditor_->on_cycle_end();
}

}  // namespace htnoc::sim
