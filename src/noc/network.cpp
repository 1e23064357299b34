#include "noc/network.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <utility>

#include "common/expect.hpp"
#include "noc/adaptive.hpp"
#include "noc/step_pool.hpp"

namespace htnoc {

namespace {
constexpr std::array<Direction, 4> kDirs = {Direction::kNorth, Direction::kSouth,
                                            Direction::kEast, Direction::kWest};

MeshGeometry validated_geometry(const NocConfig& cfg) {
  cfg.validate();
  return {cfg.mesh_width, cfg.mesh_height, cfg.concentration};
}

/// Shard `s` of `shards` contiguous, ascending ranges over `n` units.
std::pair<std::size_t, std::size_t> shard_range(std::size_t n, int s,
                                                std::size_t shards) {
  const auto su = static_cast<std::size_t>(s);
  return {n * su / shards, n * (su + 1) / shards};
}
}  // namespace

std::string Network::Hop::name() const {
  if (port == trace::kLinkPortInjection) return "inj.c" + std::to_string(node);
  if (port == trace::kLinkPortEjection) return "ej.c" + std::to_string(node);
  return "r" + std::to_string(node) + "->" + to_string(port_direction(port));
}

Network::Network(const NocConfig& cfg)
    : cfg_(cfg), geom_(validated_geometry(cfg)),
      routing_(std::make_unique<XyRouting>(geom_)),
      hops_(static_cast<std::size_t>(geom_.num_routers() * 4 +
                                     geom_.num_cores() * 2)) {
  const int nr = geom_.num_routers();
  const int nc = geom_.num_cores();
  const int ports = cfg_.ports_per_router();

  // The in-flight array: one PortCounts per router port, routers
  // ascending, then one per NI. Sized once; routers, NIs and links keep
  // pointers into it.
  inflight_.assign(static_cast<std::size_t>(nr * ports + nc), PortCounts{});
  const auto router_counts = [&](RouterId r, int port) {
    return &inflight_[static_cast<std::size_t>(r * ports + port)];
  };
  const auto ni_counts = [&](NodeId c) {
    return &inflight_[static_cast<std::size_t>(nr * ports + c)];
  };

  routers_.reserve(static_cast<std::size_t>(nr));
  for (RouterId r = 0; r < nr; ++r) {
    routers_.push_back(
        std::make_unique<Router>(cfg_, r, routing_.get(), router_counts(r, 0)));
  }

  // Wire hop `i` of the table (see hops_). A hop's phits count at the
  // input it feeds, its control messages at the output that sends on it.
  const auto wire = [&](std::size_t i, std::uint16_t node, std::int8_t port,
                        OutputUnit& out, PortCounts* out_counts, InputUnit& in,
                        PortCounts* in_counts) {
    Hop& h = hops_[i];
    h.out = &out;
    h.in = &in;
    h.node = node;
    h.port = port;
    out.connect(&h.link);
    in.connect(&h.link);
    h.link.bind_counts(&in_counts->phits, &out_counts->control);
  };
  for (const LinkRef& l : geom_.links()) {
    const RouterId to = geom_.neighbor(l.from, l.dir);
    const int out_port = direction_port(l.dir);
    const int in_port = direction_port(opposite(l.dir));
    wire(static_cast<std::size_t>(link_index(l)), l.from,
         static_cast<std::int8_t>(out_port), router(l.from).output(out_port),
         router_counts(l.from, out_port), router(to).input(in_port),
         router_counts(to, in_port));
  }

  nis_.reserve(static_cast<std::size_t>(nc));
  for (NodeId c = 0; c < nc; ++c) {
    nis_.push_back(std::make_unique<NetworkInterface>(cfg_, c, ni_counts(c)));
    NetworkInterface& ni = *nis_.back();
    const RouterId r = geom_.router_of_core(c);
    const int port = kPortLocalBase + geom_.local_slot_of_core(c);
    const auto i = static_cast<std::size_t>(nr * 4 + c * 2);
    wire(i, c, trace::kLinkPortInjection, ni.injection_port(), ni_counts(c),
         router(r).input(port), router_counts(r, port));
    wire(i + 1, c, trace::kLinkPortEjection, router(r).output(port),
         router_counts(r, port), ni.ejection_port(), ni_counts(c));
  }
}

Network::~Network() = default;

int Network::step_shards() const noexcept {
  int t = cfg_.step_threads;
  const int nr = static_cast<int>(routers_.size());
  if (t > nr) t = nr;
  return t < 1 ? 1 : t;
}

void Network::drain_range(std::size_t rlo, std::size_t rhi, std::size_t clo,
                          std::size_t chi) {
  // Active-set evaluation happens before any drain, at the cycle-start
  // fixed point: every in-flight word a unit's has_work() reads is lowered
  // only by that unit's drain and raised only in the compute phase, so the
  // evaluation is race-free and — unlike the former mid-loop evaluation —
  // independent of unit order and thread count. (A unit woken only by a
  // same-cycle send would have been a no-op step anyway: its due queues
  // are empty. It wakes next cycle instead.)
  for (std::size_t i = rlo; i < rhi; ++i) {
    Router& r = *routers_[i];
    router_active_[i] = (!cfg_.active_step || r.has_work()) ? 1 : 0;
    if (router_active_[i] != 0) r.drain(now_);
  }
  for (std::size_t i = clo; i < chi; ++i) {
    NetworkInterface& ni = *nis_[i];
    ni_active_[i] = (!cfg_.active_step || ni.has_work()) ? 1 : 0;
    if (ni_active_[i] != 0) ni.drain(now_);
  }
}

void Network::compute_range(std::size_t rlo, std::size_t rhi, std::size_t clo,
                            std::size_t chi) {
  for (std::size_t i = rlo; i < rhi; ++i) {
    if (router_active_[i] != 0) routers_[i]->compute(now_);
  }
  for (std::size_t i = clo; i < chi; ++i) {
    if (ni_active_[i] != 0) nis_[i]->compute(now_);
  }
}

void Network::step() {
  const std::size_t nr = routers_.size();
  const std::size_t nc = nis_.size();
  if (router_active_.size() != nr) router_active_.assign(nr, 0);
  if (ni_active_.size() != nc) ni_active_.assign(nc, 0);

  const int shards = step_shards();
  if (shards <= 1) {
    drain_range(0, nr, 0, nc);
    compute_range(0, nr, 0, nc);
  } else {
    if (pool_ == nullptr) pool_ = std::make_unique<StepPool>(shards);
    if (shard_router_events_.size() != static_cast<std::size_t>(shards)) {
      shard_router_events_.resize(static_cast<std::size_t>(shards));
      shard_ni_events_.resize(static_cast<std::size_t>(shards));
    }
    const std::size_t sh = static_cast<std::size_t>(shards);
    // One dispatch per cycle: every shard drains, the pool's barrier waits
    // until every due message is staged and nothing more arrives this
    // cycle, then every shard computes (phase 2's link interactions are
    // pushes only). Both phase functions capture only [this, sh], which
    // fits std::function's small-object buffer: a dispatch allocates
    // nothing (tests/test_step_allocations.cpp).
    const auto drain = [this, sh](int s) {
      const auto [rlo, rhi] = shard_range(routers_.size(), s, sh);
      const auto [clo, chi] = shard_range(nis_.size(), s, sh);
      drain_range(rlo, rhi, clo, chi);
    };
    const auto compute = [this, sh](int s) {
      const auto su = static_cast<std::size_t>(s);
      const auto [rlo, rhi] = shard_range(routers_.size(), s, sh);
      const auto [clo, chi] = shard_range(nis_.size(), s, sh);
      // Stage this worker's trace records per shard; reset on every exit
      // path so a contract violation cannot leave a dangling redirect.
      struct StageReset {
        ~StageReset() { trace::TraceSink::set_thread_stage(nullptr); }
      } reset;
      trace::TraceSink::set_thread_stage(&shard_router_events_[su]);
      for (std::size_t i = rlo; i < rhi; ++i) {
        if (router_active_[i] != 0) routers_[i]->compute(now_);
      }
      trace::TraceSink::set_thread_stage(&shard_ni_events_[su]);
      for (std::size_t i = clo; i < chi; ++i) {
        if (ni_active_[i] != 0) nis_[i]->compute(now_);
      }
    };
    pool_->run(drain, compute);
    // Deterministic trace merge: shards own contiguous ascending unit
    // ranges, so router buffers in shard order then NI buffers in shard
    // order reproduce the serial emission order exactly.
    if (trace::TraceSink* sink = tap_.sink()) {
      for (auto& buf : shard_router_events_) {
        for (const trace::Event& e : buf) sink->record(e);
        buf.clear();
      }
      for (auto& buf : shard_ni_events_) {
        for (const trace::Event& e : buf) sink->record(e);
        buf.clear();
      }
    }
  }

  // Staged delivery/audit notifications flush on this thread in core order
  // — the serial call sequence (callbacks mutate traffic-layer state the
  // workers must not touch). Only NIs that stepped this cycle staged any.
  for (std::size_t i = 0; i < nc; ++i) {
    if (ni_active_[i] != 0) nis_[i]->flush_ejections(now_);
  }

  for (std::size_t i = 0; i < nr; ++i) {
    if (router_active_[i] != 0) {
      ++step_stats_.router_steps;
    } else {
      ++step_stats_.router_skips;
    }
  }
  for (std::size_t i = 0; i < nc; ++i) {
    if (ni_active_[i] != 0) {
      ++step_stats_.ni_steps;
    } else {
      ++step_stats_.ni_skips;
    }
  }

  ++now_;
  if (tap_.on(trace::Category::kSaturation)) trace_saturation();
}

void Network::trace_saturation() {
  const std::size_t nr = routers_.size();
  if (router_blocked_.size() != nr) router_blocked_.assign(nr, 0);
  for (std::size_t i = 0; i < nr; ++i) {
    const bool blocked = routers_[i]->any_port_blocked(now_);
    if (blocked == (router_blocked_[i] != 0)) continue;
    router_blocked_[i] = blocked ? 1 : 0;
    tap_.emit(trace::make_event(blocked ? trace::EventType::kRouterBlocked
                                        : trace::EventType::kRouterUnblocked,
                                now_, trace::Scope::kRouter,
                                static_cast<std::uint16_t>(i)));
  }
}

void Network::set_audit(FlitAuditObserver* audit) {
  audit_ = audit;
  for (auto& ni : nis_) ni->set_audit(audit);
}

void Network::collect_resident(std::vector<ResidentFlit>& out) const {
  // A hop's phits are filed under its own identity (see Hop).
  const auto hop_phits = [&](std::size_t first, std::size_t count) {
    for (std::size_t i = first; i < first + count; ++i) {
      hops_[i].link.collect_resident(out, hops_[i].node, hops_[i].port);
    }
  };
  const auto nr = static_cast<std::size_t>(geom_.num_routers());
  for (RouterId r = 0; r < geom_.num_routers(); ++r) {
    const Router& rt = *routers_[static_cast<std::size_t>(r)];
    for (int port = 0; port < rt.num_ports(); ++port) {
      rt.input(port).collect_resident(out, r, static_cast<std::int8_t>(port));
      rt.output(port).collect_resident(out, r, static_cast<std::int8_t>(port));
    }
    hop_phits(static_cast<std::size_t>(r) * 4, 4);
  }
  for (NodeId c = 0; c < geom_.num_cores(); ++c) {
    const NetworkInterface& ni = *nis_[static_cast<std::size_t>(c)];
    ni.collect_source_resident(out);
    // NI-side ports reuse the router unit types; file them under the core.
    ni.injection_port().collect_resident(out, c, trace::kLinkPortInjection);
    ni.ejection_port().collect_resident(out, c, trace::kLinkPortEjection);
    hop_phits(nr * 4 + static_cast<std::size_t>(c) * 2, 2);
  }
}

void Network::set_trace(trace::TraceSink* sink) {
  tap_ = trace::Tap(sink);
  router_blocked_.assign(routers_.size(), 0);
  if (sink != nullptr) {
    sink->set_topology(static_cast<std::uint16_t>(geom_.num_routers()),
                       static_cast<std::uint8_t>(cfg_.mesh_width),
                       static_cast<std::uint8_t>(cfg_.mesh_height),
                       static_cast<std::uint8_t>(cfg_.concentration),
                       static_cast<std::uint8_t>(cfg_.topology));
  }
  for (Hop& h : hops_) h.link.set_trace(tap_, h.node, h.port);
  for (auto& r : routers_) r->set_trace(tap_);
  for (auto& ni : nis_) ni->set_trace(tap_);
}

bool Network::try_inject(const PacketInfo& info,
                         const std::vector<std::uint64_t>& payload) {
  HTNOC_EXPECT(info.src_core < geom_.num_cores());
  HTNOC_EXPECT(info.dest_core < geom_.num_cores());
  return nis_[static_cast<std::size_t>(info.src_core)]->try_inject(now_, info,
                                                                   payload);
}

void Network::set_delivery_callback(NetworkInterface::DeliveryCallback cb) {
  for (auto& ni : nis_) ni->set_delivery_callback(cb);
}

Link& Network::link(RouterId from, Direction dir) {
  HTNOC_EXPECT(has_link(from, dir));
  return hops_[static_cast<std::size_t>(link_index({from, dir}))].link;
}

bool Network::has_link(RouterId from, Direction dir) const {
  return from < geom_.num_routers() && geom_.has_neighbor(from, dir);
}

std::vector<LinkRef> Network::all_links() const { return geom_.links(); }

void Network::disable_link(const LinkRef& l) {
  HTNOC_EXPECT(has_link(l.from, l.dir));
  link(l.from, l.dir).set_disabled(true);
  disabled_.insert(l);
  if (tap_.on(trace::Category::kReroute)) {
    tap_.emit(trace::make_event(
        trace::EventType::kLinkDisabled, now_, trace::Scope::kLink, l.from,
        static_cast<std::int8_t>(direction_port(l.dir))));
  }
}

bool Network::would_disconnect(const LinkRef& l) const {
  // Undirected connectivity over healthy edges, treating an edge as dead
  // when either direction is disabled (matching UpDownRouting's rule) and
  // with `l` (both directions) additionally removed.
  const RouterId lfrom = l.from;
  const RouterId lto = geom_.neighbor(l.from, l.dir);
  std::vector<bool> seen(static_cast<std::size_t>(geom_.num_routers()), false);
  std::deque<RouterId> q{0};
  seen[0] = true;
  int reached = 1;
  while (!q.empty()) {
    const RouterId r = q.front();
    q.pop_front();
    for (const Direction d : kDirs) {
      if (!geom_.has_neighbor(r, d)) continue;
      const RouterId nb = geom_.neighbor(r, d);
      if (seen[static_cast<std::size_t>(nb)]) continue;
      if (disabled_.contains({r, d}) || disabled_.contains({nb, opposite(d)})) {
        continue;
      }
      if ((r == lfrom && nb == lto) || (r == lto && nb == lfrom)) continue;
      seen[static_cast<std::size_t>(nb)] = true;
      ++reached;
      q.push_back(nb);
    }
  }
  return reached != geom_.num_routers();
}

void Network::use_xy_routing() {
  HTNOC_EXPECT(disabled_.empty());
  routing_ = std::make_unique<XyRouting>(geom_);
  routing_mode_ = RoutingMode::kDefault;
  for (auto& r : routers_) r->set_routing(routing_.get());
}

void Network::use_west_first_routing() {
  HTNOC_EXPECT(disabled_.empty());
  // Congestion score of an output: occupied downstream buffer slots plus
  // waiting retransmission slots.
  auto probe = [this](RouterId r, int port) {
    const OutputUnit& out = routers_[static_cast<std::size_t>(r)]->output(port);
    int credits = 0;
    for (int vc = 0; vc < cfg_.vcs_per_port; ++vc) credits += out.credits(vc);
    return cfg_.vcs_per_port * cfg_.buffer_depth - credits + out.occupancy();
  };
  routing_ = std::make_unique<WestFirstRouting>(geom_, probe);
  routing_mode_ = RoutingMode::kWestFirst;
  for (auto& r : routers_) r->set_routing(routing_.get());
}

void Network::use_updown_routing() {
  routing_ = std::make_unique<UpDownRouting>(geom_, disabled_);
  routing_mode_ = RoutingMode::kUpDown;
  for (auto& r : routers_) r->set_routing(routing_.get());
}

std::vector<PacketId> Network::purge_packet(PacketId p) {
  // `work` is both the FIFO worklist and the returned purge order; a packet
  // appears at most once (membership checked on insert, sizes are tiny).
  std::vector<PacketId> work{p};
  // Reusable scratch, cleared per packet. `removed` collects every flit of
  // `cur` removed anywhere; a flit can exist in several places at once
  // (in-flight slot + link phit, or slot + receiver buffer with the ACK in
  // flight), so accounting sorts and deduplicates by uid at the end.
  std::vector<std::uint64_t>& buffered = purge_buffered_scratch_;
  std::vector<std::uint64_t>& removed = purge_removed_scratch_;

  for (std::size_t wi = 0; wi < work.size(); ++wi) {
    const PacketId cur = work[wi];
    buffered.clear();
    removed.clear();

    // Pass 1: sweep phits off every link.
    for (Hop& h : hops_) {
      for (const auto uid : h.link.purge_packet(cur)) removed.push_back(uid);
    }

    // Pass 2: inputs (router ports and NI ejection). Credits return through
    // the normal reverse channels; held output VCs are released here.
    auto absorb = [&](const InputUnit::PurgeResult& res, Router* owner) {
      for (const auto uid : res.buffered_uids) {
        buffered.push_back(uid);
        removed.push_back(uid);
      }
      if (owner != nullptr && res.held_out_port >= 0) {
        owner->output(res.held_out_port).release_vc_if_allocated(res.held_out_vc);
      }
      for (const PacketId dep : res.dependent_packets) {
        if (std::find(work.begin(), work.end(), dep) == work.end()) {
          work.push_back(dep);
        }
      }
    };
    for (auto& r : routers_) {
      for (int port = 0; port < r->num_ports(); ++port) {
        absorb(r->input(port).purge_packet(now_, cur), r.get());
      }
    }
    for (auto& ni : nis_) {
      absorb(ni->purge_ejection(now_, cur), nullptr);
    }

    // Pass 3: outputs (retransmission buffers) and NI source queues, which
    // binary-search `buffered` for ACK-in-flight overlap.
    std::sort(buffered.begin(), buffered.end());
    for (auto& r : routers_) {
      for (int port = 0; port < r->num_ports(); ++port) {
        (void)r->output(port).purge_packet(cur, buffered, &removed);
      }
    }
    for (auto& ni : nis_) {
      (void)ni->purge_injection(cur, buffered, &removed);
    }

    std::sort(removed.begin(), removed.end());
    removed.erase(std::unique(removed.begin(), removed.end()), removed.end());
    const auto distinct = static_cast<std::uint64_t>(removed.size());
    ++purge_totals_.packets;
    purge_totals_.flits += distinct;
    if (audit_ != nullptr) audit_->on_flits_purged(now_, cur, removed);
    if (tap_.on(trace::Category::kPurge)) {
      trace::Event e = trace::make_event(trace::EventType::kPacketPurged, now_,
                                         trace::Scope::kNetwork, 0);
      e.packet = cur;
      e.arg = distinct;
      tap_.emit(e);
    }
  }
  for (auto& r : routers_) r->sync_slot_outputs();
  return work;
}

bool Network::packet_in_flight(PacketId p) const {
  for (const auto& r : routers_) {
    for (int port = 0; port < r->num_ports(); ++port) {
      if (r->input(port).has_packet(p) || r->output(port).has_packet(p)) {
        return true;
      }
    }
  }
  for (const Hop& h : hops_) {
    if (h.link.has_packet(p)) return true;
  }
  return false;
}

std::string Network::check_invariants() const {
  CreditTally t;
  for (const Hop& h : hops_) {
    if (!h.wired()) continue;
    const int vc = tally_hop(h, t, [](std::uint64_t) {});
    if (vc < 0) continue;
    const CreditTally::Terms& x = t.vc[static_cast<std::size_t>(vc)];
    const int credits = h.out->credits(vc);
    const int buffered = h.in->vcbuf(vc).occupancy + x.stationed;
    return h.name() + " vc" + std::to_string(vc) + ": credits " +
           std::to_string(credits) + " + wire " + std::to_string(x.wire) +
           " + slots " + std::to_string(x.slots) + " + buffered " +
           std::to_string(buffered) + " - overlap " +
           std::to_string(x.overlap) + " != depth " +
           std::to_string(cfg_.buffer_depth);
  }
  return {};
}

Network::UtilizationSample Network::sample_utilization() const {
  UtilizationSample s;
  s.cycle = now_;
  for (const auto& r : routers_) {
    s.input_port_flits += r->input_occupancy();
    s.output_port_flits += r->output_occupancy();
    if (r->any_port_blocked(now_)) ++s.routers_with_blocked_port;
  }
  for (RouterId r = 0; r < geom_.num_routers(); ++r) {
    int full = 0;
    for (int slot = 0; slot < geom_.concentration(); ++slot) {
      const auto& ni = *nis_[static_cast<std::size_t>(geom_.core_at(r, slot))];
      if (ni.injection_full()) ++full;
    }
    if (full == geom_.concentration()) ++s.routers_all_cores_full;
    if (2 * full > geom_.concentration()) ++s.routers_majority_cores_full;
  }
  for (const auto& ni : nis_) s.injection_port_flits += ni->injection_occupancy();
  return s;
}

std::uint64_t Network::packets_delivered() const {
  std::uint64_t n = 0;
  for (const auto& ni : nis_) n += ni->stats().packets_delivered;
  return n;
}

std::uint64_t Network::packets_injected() const {
  std::uint64_t n = 0;
  for (const auto& ni : nis_) n += ni->stats().packets_injected;
  return n;
}

bool Network::quiescent() const {
  for (const auto& r : routers_) {
    if (r->input_occupancy() != 0 || r->output_occupancy() != 0) return false;
  }
  for (const auto& ni : nis_) {
    if (ni->injection_occupancy() != 0) return false;
  }
  for (const Hop& h : hops_) {
    if (!h.link.idle()) return false;
  }
  return true;
}

}  // namespace htnoc
