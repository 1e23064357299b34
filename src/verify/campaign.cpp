#include "verify/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iomanip>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "common/expect.hpp"
#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "traffic/app_profile.hpp"
#include "traffic/generator.hpp"
#include "verify/shard_merge.hpp"
#include "verify/snapshot.hpp"

namespace htnoc::verify {

std::string format_repro(const ReproSpec& r) {
  std::ostringstream os;
  os << "htnoc-campaign-repro seed=0x" << std::hex << r.seed << std::dec
     << " index=" << r.index;
  if (r.warmup > 0) {
    os << " warmup=" << r.warmup;
  }
  return os.str();
}

std::optional<ReproSpec> parse_repro(const std::string& line) {
  // The marker distinguishes a repro line from arbitrary seed=... text when
  // scanning log files.
  if (line.find("htnoc-campaign-repro") == std::string::npos) {
    return std::nullopt;
  }
  const auto seed_pos = line.find("seed=");
  const auto index_pos = line.find("index=");
  if (seed_pos == std::string::npos || index_pos == std::string::npos) {
    return std::nullopt;
  }
  ReproSpec r;
  try {
    r.seed = std::stoull(line.substr(seed_pos + 5), nullptr, 0);
    r.index = std::stoull(line.substr(index_pos + 6), nullptr, 0);
    const auto warmup_pos = line.find("warmup=");
    if (warmup_pos != std::string::npos) {
      r.warmup = std::stoull(line.substr(warmup_pos + 7), nullptr, 0);
    }
  } catch (const std::exception&) {
    return std::nullopt;
  }
  return r;
}

namespace {

/// Scenario parameters drawn from the per-index RNG, plus the mid-run
/// adversarial event schedule the driver loop applies.
struct Scenario {
  sim::SimConfig config;
  std::string profile;
  double rate_scale = 1.0;
  Cycle cycles = 0;
  bool background = false;
  std::string bg_profile;
  double bg_rate = 0.0;

  struct KillToggle {
    Cycle at = 0;
    std::size_t trojan = 0;
    bool on = false;
  };
  std::vector<KillToggle> toggles;
  std::vector<Cycle> purge_storms;  ///< Cycles with one random purge each.
  Cycle migrate_at = 0;  ///< 0 = no migration event.
  RouterId migrate_to = 0;

  std::string descriptor;
};

const char* const kProfiles[] = {"blackscholes", "facesim", "ferret", "fft"};

trojan::TaspParams draw_tasp(Rng& rng, const NocConfig& noc) {
  trojan::TaspParams t;
  constexpr trojan::TargetKind kKinds[] = {
      trojan::TargetKind::kFull, trojan::TargetKind::kDest,
      trojan::TargetKind::kSrc,  trojan::TargetKind::kDestSrc,
      trojan::TargetKind::kMem,  trojan::TargetKind::kVc,
      trojan::TargetKind::kThread};
  t.kind = kKinds[rng.next_below(std::size(kKinds))];
  const auto routers = static_cast<std::uint64_t>(noc.num_routers());
  t.target_src = static_cast<RouterId>(rng.next_below(routers));
  t.target_dest = static_cast<RouterId>(rng.next_below(routers));
  t.target_vc = static_cast<VcId>(
      rng.next_below(static_cast<std::uint64_t>(noc.vcs_per_port)));
  t.target_thread = static_cast<std::uint8_t>(rng.next_below(64));
  t.target_mem = 0x1000'0000u + static_cast<std::uint32_t>(
                                    rng.next_below(0x0100'0000u));
  // Half the memory-keyed implants target a whole page, not one address.
  if (rng.next_bool(0.5)) t.mem_mask = 0xFFFFF000u;
  t.ecc = noc.ecc_scheme;  // the attacker knows the link code (Sec. III-B)
  t.payload_states = static_cast<int>(rng.next_in(4, 16));
  t.min_gap = rng.next_in(1, 4);
  t.only_head_flits = rng.next_bool(0.8);
  const double p = rng.next_double();
  t.pattern = p < 0.7 ? trojan::PayloadPattern::kDoubleDetectable
              : p < 0.9 ? trojan::PayloadPattern::kSingleCorrectable
                        : trojan::PayloadPattern::kTripleSdc;
  return t;
}

/// All scenario randomness is drawn here, in one fixed order, from the
/// index-derived RNG — the scenario is a pure function of (seed, index).
///
/// A snapshot-forking campaign (warmup_cycles > 0) pins the substrate to
/// the warmup snapshot's default fabric and continues its blackscholes
/// traffic, so it skips the structural draws (topology, concentration,
/// buffers, retransmission, TDM, ECC) and the traffic-profile draws.
/// Attacks, mitigation, background faults and the mid-run event schedule
/// still randomize, with every scheduled cycle shifted past the warmup
/// window: the restored network resumes at cycle warmup_cycles, and kill
/// switches, storms and migration all key off the absolute network clock.
Scenario draw_scenario(const CampaignSpec& spec, std::uint64_t index) {
  const std::uint64_t run_seed = sweep::derive_run_seed(spec.seed, index, 0);
  Rng rng(run_seed);
  const Cycle warm = spec.warmup_cycles;
  Scenario s;
  sim::SimConfig& sc = s.config;

  if (warm == 0) {
    // Topology dimension — strictly opt-in. An empty list (the default)
    // must consume zero draws so the default campaign's draw sequence, and
    // with it every historical summary byte, stays identical (RNG-draw-order
    // is a compatibility contract; see tests/test_campaign_topology.cpp).
    if (!spec.topologies.empty()) {
      sc.noc.topology =
          spec.topologies[rng.next_below(spec.topologies.size())];
      if (sc.noc.topology == TopologyKind::kMesh) {
        const int k = rng.next_bool(0.5) ? 8 : 4;
        sc.noc.mesh_width = k;
        sc.noc.mesh_height = k;
      }
    }

    sc.noc.concentration = rng.next_bool(0.5) ? 4 : 2;
    if (sc.noc.topology == TopologyKind::kMesh) sc.noc.concentration = 1;
    sc.noc.buffer_depth = rng.next_bool(0.5) ? 4 : 2;
    sc.noc.retrans_scheme = rng.next_bool(0.5)
                                ? RetransmissionScheme::kOutputBuffer
                                : RetransmissionScheme::kPerVcBuffer;
    sc.noc.tdm_enabled = rng.next_bool(0.2);
    sc.noc.active_step = rng.next_bool(0.8);
    const double eccd = rng.next_double();
    sc.noc.ecc_scheme = eccd < 0.7   ? EccScheme::kSecded
                        : eccd < 0.9 ? EccScheme::kParity
                                     : EccScheme::kNone;
  }
  sc.seed = sweep::mix_seed(run_seed, 1);
  sc.noc.seed = sweep::mix_seed(run_seed, 2);

  const double moded = rng.next_double();
  sc.mode = moded < 0.30   ? sim::MitigationMode::kNone
            : moded < 0.65 ? sim::MitigationMode::kLOb
                           : sim::MitigationMode::kReroute;
  sc.reroute_latency = rng.next_in(20, 400);

  // Trojan implants, on links drawn in the canonical order Network wires
  // them in (routers ascending, N,S,E,W), which keeps every campaign's
  // attack-link draws stable.
  const std::vector<LinkRef> links =
      MeshGeometry(sc.noc.mesh_width, sc.noc.mesh_height, sc.noc.concentration)
          .links();
  const std::uint64_t num_attacks = rng.next_below(4);
  for (std::uint64_t a = 0; a < num_attacks; ++a) {
    sim::AttackSpec atk;
    atk.link = links[rng.next_below(links.size())];
    atk.tasp = draw_tasp(rng, sc.noc);
    atk.enable_killsw_at = warm + rng.next_in(50, 400);
    sc.attacks.push_back(atk);
  }
  // Kill-switch toggling mid-flight: off, then on again (the trojan FSM
  // must go quiet and recover without wedging anything).
  if (num_attacks > 0 && rng.next_bool(0.4)) {
    for (std::size_t a = 0; a < sc.attacks.size(); ++a) {
      const Cycle off = sc.attacks[a].enable_killsw_at + rng.next_in(50, 200);
      s.toggles.push_back({off, a, false});
      s.toggles.push_back({off + rng.next_in(50, 200), a, true});
    }
  }

  // Background fault environment.
  double transient = 0.0;
  if (rng.next_bool(0.5)) {
    transient = std::pow(10.0, -(2.0 + 2.0 * rng.next_double()));
    sc.transient_phit_fault_prob = transient;
  }
  std::uint64_t permanent_wires = 0;
  if (rng.next_bool(0.15)) {
    permanent_wires = rng.next_in(1, 3);
    std::map<unsigned, bool> stuck;
    while (stuck.size() < permanent_wires) {
      stuck[static_cast<unsigned>(rng.next_below(72))] = rng.next_bool(0.5);
    }
    sc.permanent_faults.emplace_back(links[rng.next_below(links.size())],
                                     std::move(stuck));
  }

  // L-Ob method forcing (40% of L-Ob scenarios pin one method).
  std::string lob_force = "-";
  if (sc.mode == sim::MitigationMode::kLOb && rng.next_bool(0.4)) {
    constexpr ObfMethod kMethods[] = {ObfMethod::kInvert, ObfMethod::kShuffle,
                                      ObfMethod::kScramble};
    constexpr ObfGranularity kGrans[] = {ObfGranularity::kHeader,
                                         ObfGranularity::kFlit,
                                         ObfGranularity::kPayload};
    ObfMethod m = kMethods[rng.next_below(std::size(kMethods))];
    ObfGranularity g = kGrans[rng.next_below(std::size(kGrans))];
    // Scrambling XORs two whole wire images; partial-window scramble is not
    // a defined mode.
    if (m == ObfMethod::kScramble) g = ObfGranularity::kFlit;
    sc.lob = mitigation::forced_lob_params(m, g);
    lob_force = to_string(m) + "/" + to_string(g);
  }

  // Traffic. A warmed scenario continues the snapshot's blackscholes
  // generator, whose restored model state would override a drawn profile.
  if (warm == 0) {
    s.profile = kProfiles[rng.next_below(std::size(kProfiles))];
    s.rate_scale = 0.3 + 1.7 * rng.next_double();
    if (sc.noc.tdm_enabled) {
      s.background = true;
      s.bg_profile = kProfiles[rng.next_below(std::size(kProfiles))];
      s.bg_rate = 0.01 + 0.04 * rng.next_double();
    }
  } else {
    s.profile = "blackscholes";
  }

  s.cycles = rng.next_in(300, 1500);

  // Purge storms: spontaneous network-wide purges of random live packets
  // (the reroute recovery path exercised without waiting for a reroute).
  if (rng.next_bool(0.3)) {
    const std::uint64_t storms = rng.next_in(1, 20);
    for (std::uint64_t i = 0; i < storms; ++i) {
      s.purge_storms.push_back(warm + rng.next_in(50, s.cycles - 1));
    }
    std::sort(s.purge_storms.begin(), s.purge_storms.end());
  }

  // Hotspot migration under attack (the paper's OS-level complement).
  if (rng.next_bool(0.15)) {
    s.migrate_at = warm + rng.next_in(100, 300);
    s.migrate_to = static_cast<RouterId>(
        rng.next_below(static_cast<std::uint64_t>(sc.noc.num_routers())));
  }

  sc.audit = spec.audit;
  sc.audit.enabled = true;
  // Applied after every RNG draw: step_threads is an execution knob, not a
  // scenario parameter, so changing it must not perturb the draw sequence
  // (equivalence_report depends on the two campaigns drawing identical
  // scenarios).
  sc.noc.step_threads = spec.step_threads;

  std::ostringstream d;
  if (warm > 0) {
    d << "warmup=" << warm << " mode=" << sim::to_string(sc.mode);
  } else {
    d << "topo=" << to_string(sc.noc.topology) << sc.noc.mesh_width << "x"
      << sc.noc.mesh_height << " mode=" << sim::to_string(sc.mode) << " ecc="
      << to_string(sc.noc.ecc_scheme) << " conc=" << sc.noc.concentration
      << " buf=" << sc.noc.buffer_depth
      << " scheme=" << to_string(sc.noc.retrans_scheme)
      << " tdm=" << (sc.noc.tdm_enabled ? 1 : 0)
      << " astep=" << (sc.noc.active_step ? 1 : 0);
  }
  d << " attacks=" << num_attacks << " toggles=" << s.toggles.size()
    << " transient=" << std::setprecision(3) << transient
    << " perm=" << permanent_wires << " lob=" << lob_force
    << " storms=" << s.purge_storms.size()
    << " migrate=" << (s.migrate_at != 0 ? 1 : 0);
  if (warm == 0) {
    d << " profile=" << s.profile << " rate=" << std::fixed
      << std::setprecision(2) << s.rate_scale;
  }
  d << " cycles=" << s.cycles;
  s.descriptor = d.str();
  return s;
}

/// Build the campaign's shared warmup snapshot: a clean default fabric (no
/// attacks, no faults, no mitigation) carrying `warmup_cycles` of
/// blackscholes traffic, audited from cycle 0 so restored scenarios inherit
/// a live ledger. Depends only on (seed, warmup_cycles, audit config) — one
/// blob serves every scenario on every shard.
std::vector<std::uint8_t> build_warmup_blob(const CampaignSpec& spec) {
  sim::SimConfig wc;
  wc.seed = sweep::mix_seed(spec.seed, 11);
  wc.noc.seed = sweep::mix_seed(spec.seed, 12);
  wc.audit = spec.audit;
  wc.audit.enabled = true;

  sim::Simulator simulator(std::move(wc));
  Network& net = simulator.network();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppTrafficModel model(net.geometry(),
                                 traffic::blackscholes_profile());
  traffic::TrafficGenerator::Params gp;
  gp.seed = sweep::mix_seed(spec.seed, 13);
  gp.domain = TdmDomain::kD1;
  traffic::TrafficGenerator gen(net, model, gp, disp);

  for (Cycle c = 0; c < spec.warmup_cycles; ++c) {
    gen.step();
    simulator.step();
  }
  return save_snapshot(simulator, {&gen});
}

ScenarioResult run_scenario_impl(const CampaignSpec& spec, std::uint64_t index,
                                 const std::vector<std::uint8_t>* warmup) {
  ScenarioResult res;
  res.index = index;
  const bool warmed = spec.warmup_cycles > 0;
  Scenario sn = draw_scenario(spec, index);
  res.descriptor = sn.descriptor;
  const std::uint64_t run_seed = sweep::derive_run_seed(spec.seed, index, 0);

  sim::Simulator simulator(std::move(sn.config));
  Network& net = simulator.network();

  traffic::DeliveryDispatcher disp;
  disp.install(net);

  traffic::AppProfile profile = traffic::profile_by_name(sn.profile);
  profile.injection_rate *= sn.rate_scale;  // 1.0 when warmed
  traffic::AppTrafficModel model(net.geometry(), profile);
  traffic::TrafficGenerator::Params gp;
  gp.seed = warmed ? sweep::mix_seed(spec.seed, 13)
                   : sweep::mix_seed(run_seed, 3);
  gp.domain = TdmDomain::kD1;
  traffic::TrafficGenerator gen(net, model, gp, disp);

  if (warmed) {
    // Fork the shared warmed-up fabric into this scenario's simulator: the
    // blob's clean links prefix-match under the scenario's freshly attached
    // trojans/fault injectors, and its empty mitigation sections leave the
    // scenario's detectors and L-Ob controllers fresh.
    load_snapshot(simulator, {&gen}, *warmup);
  }

  std::unique_ptr<traffic::AppTrafficModel> bg_model;
  std::unique_ptr<traffic::TrafficGenerator> bg;
  if (sn.background) {
    traffic::AppProfile bp = traffic::profile_by_name(sn.bg_profile);
    bp.injection_rate = sn.bg_rate;
    bg_model = std::make_unique<traffic::AppTrafficModel>(net.geometry(), bp);
    traffic::TrafficGenerator::Params bgp;
    bgp.seed = sweep::mix_seed(run_seed, 4);
    bgp.domain = TdmDomain::kD2;
    bg = std::make_unique<traffic::TrafficGenerator>(net, *bg_model, bgp,
                                                     disp);
  }

  simulator.set_drop_callback([&](PacketId id) {
    gen.requeue(id);
    if (bg) bg->requeue(id);
  });

  Rng storm_rng(sweep::mix_seed(run_seed, 7));
  std::size_t storm_next = 0;
  const RouterId migrate_from =
      profile.hotspots.empty() ? RouterId{0} : profile.hotspots.front().first;

  // A warmed scenario resumes at the snapshot's cycle and plays its drawn
  // cycle budget on top; every scheduled event was drawn in absolute cycles.
  const Cycle start = spec.warmup_cycles;
  for (Cycle c = start; c < start + sn.cycles; ++c) {
    for (const Scenario::KillToggle& t : sn.toggles) {
      if (t.at == c) simulator.tasp(t.trojan).set_kill_switch(t.on);
    }
    if (sn.migrate_at != 0 && sn.migrate_at == c) {
      gen.migrate_hotspot(migrate_from, sn.migrate_to);
    }
    while (storm_next < sn.purge_storms.size() &&
           sn.purge_storms[storm_next] == c) {
      ++storm_next;
      const PacketId hi = net.peek_next_packet_id();
      if (hi <= 1) continue;
      const PacketId victim = 1 + storm_rng.next_below(hi - 1);
      for (const PacketId dropped : net.purge_packet(victim)) {
        gen.requeue(dropped);
        if (bg) bg->requeue(dropped);
      }
    }
    if (bg) bg->step();
    gen.step();
    simulator.step();
  }

  res.cycles = sn.cycles;
  res.delivered = net.packets_delivered();
  res.purged = net.purge_totals().packets;
  const NetworkInvariantAuditor* aud = simulator.auditor();
  res.audits = aud->audits_run();
  res.flits_tracked = aud->flits_tracked();
  res.violations = aud->violations().size();
  res.ok = aud->clean();
  if (!res.ok) res.error = "invariant audit failed:\n" + aud->report();
  return res;
}

}  // namespace

namespace {

ScenarioResult run_scenario_guarded(const CampaignSpec& spec,
                                    std::uint64_t index,
                                    const std::vector<std::uint8_t>* warmup) {
  try {
    return run_scenario_impl(spec, index, warmup);
  } catch (const std::exception& e) {
    ScenarioResult res;
    res.index = index;
    res.ok = false;
    res.error = std::string("exception: ") + e.what();
    // Re-draw just the descriptor so the failure table still says what the
    // scenario looked like; draw_scenario is deterministic and cannot throw
    // for an index the campaign already drew once.
    try {
      res.descriptor = draw_scenario(spec, index).descriptor;
    } catch (const std::exception&) {
    }
    return res;
  }
}

}  // namespace

ScenarioResult FaultCampaign::run_scenario(const CampaignSpec& spec,
                                           std::uint64_t index) {
  // The repro path rebuilds the warmup snapshot from scratch — the blob is
  // a pure function of (seed, warmup_cycles, audit), so a replayed failure
  // resumes from the exact bytes the campaign forked.
  std::vector<std::uint8_t> warmup;
  if (spec.warmup_cycles > 0) warmup = build_warmup_blob(spec);
  return run_scenario_guarded(spec, index,
                              spec.warmup_cycles > 0 ? &warmup : nullptr);
}

CampaignResult FaultCampaign::run() const {
  HTNOC_EXPECT(spec_.shard_count >= 1);
  HTNOC_EXPECT(spec_.shard_index < spec_.shard_count);
  CampaignResult out;
  out.spec = spec_;
  // Strided partition: this shard owns global indices shard_index,
  // shard_index + shard_count, ... — `local` of them.
  const std::uint64_t local =
      spec_.scenarios / spec_.shard_count +
      (spec_.shard_index < spec_.scenarios % spec_.shard_count ? 1 : 0);
  out.scenarios.resize(static_cast<std::size_t>(local));
  const int nthreads = sweep::SweepRunner::resolve_threads(
      spec_.threads, static_cast<std::size_t>(local), spec_.step_threads);
  out.threads_used = nthreads;

  // One warmup snapshot serves the whole campaign; workers restore from it
  // concurrently (load_snapshot only reads the blob).
  std::vector<std::uint8_t> warmup;
  if (spec_.warmup_cycles > 0) warmup = build_warmup_blob(spec_);
  const std::vector<std::uint8_t>* warmup_ptr =
      spec_.warmup_cycles > 0 ? &warmup : nullptr;

  std::atomic<std::uint64_t> cursor{0};
  std::atomic<std::uint64_t> done{0};
  std::atomic<bool> stopped{false};
  auto worker = [&]() {
    for (;;) {
      // Stop token polled only between scenarios: a claimed scenario always
      // finishes whole, and the claimed set stays the prefix [0, cursor).
      if (spec_.should_stop && spec_.should_stop()) {
        stopped.store(true, std::memory_order_relaxed);
        return;
      }
      const std::uint64_t k = cursor.fetch_add(1, std::memory_order_relaxed);
      if (k >= local) return;
      const std::uint64_t global = spec_.shard_index + k * spec_.shard_count;
      out.scenarios[static_cast<std::size_t>(k)] =
          run_scenario_guarded(spec_, global, warmup_ptr);
      if (spec_.progress) {
        spec_.progress(done.fetch_add(1, std::memory_order_relaxed) + 1,
                       local);
      }
    }
  };
  if (nthreads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(nthreads));
    for (int t = 0; t < nthreads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  if (stopped.load(std::memory_order_relaxed)) {
    // Truncating to the claimed prefix makes a cancelled campaign's summary
    // a pure function of the stop point: scenario draws depend only on
    // (seed, index), so the summary equals that of a `cursor`-scenario
    // campaign with the same seed (locked by tests/test_campaign_determinism).
    out.cancelled = true;
    out.scenarios.resize(static_cast<std::size_t>(std::min<std::uint64_t>(
        cursor.load(std::memory_order_relaxed), local)));
  }
  return out;
}

std::string FaultCampaign::equivalence_report(CampaignSpec spec,
                                              int step_threads) {
  HTNOC_EXPECT(step_threads >= 1);
  spec.step_threads = 1;
  const CampaignResult serial = FaultCampaign(spec).run();
  spec.step_threads = step_threads;
  const CampaignResult parallel = FaultCampaign(spec).run();

  if (serial.summary_text() == parallel.summary_text()) return {};

  std::ostringstream os;
  os << "campaign diverges between step_threads=1 and step_threads="
     << step_threads << "\n";
  const std::size_t n =
      std::min(serial.scenarios.size(), parallel.scenarios.size());
  for (std::size_t i = 0; i < n; ++i) {
    const ScenarioResult& a = serial.scenarios[i];
    const ScenarioResult& b = parallel.scenarios[i];
    if (a.ok == b.ok && a.delivered == b.delivered && a.purged == b.purged &&
        a.audits == b.audits && a.flits_tracked == b.flits_tracked &&
        a.error == b.error) {
      continue;
    }
    os << "first divergence at scenario " << i << " ("
       << format_repro({spec.seed, a.index, spec.warmup_cycles}) << ")\n"
       << "  " << a.descriptor << "\n"
       << "  serial:   ok=" << a.ok << " delivered=" << a.delivered
       << " purged=" << a.purged << " audits=" << a.audits
       << " flits=" << a.flits_tracked << "\n"
       << "  parallel: ok=" << b.ok << " delivered=" << b.delivered
       << " purged=" << b.purged << " audits=" << b.audits
       << " flits=" << b.flits_tracked << "\n";
    return os.str();
  }
  os << "(per-scenario counters match; summaries differ elsewhere)\n";
  return os.str();
}

std::string CampaignResult::summary_text() const {
  return summarize_shard(*this).summary_text();
}

std::string CampaignResult::summary_markdown() const {
  return summarize_shard(*this).failures_markdown();
}

}  // namespace htnoc::verify
