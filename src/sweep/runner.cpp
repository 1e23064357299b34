#include "sweep/runner.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "common/expect.hpp"
#include "traffic/app_profile.hpp"

namespace htnoc::sweep {

const std::vector<std::string>& RunResult::metric_names() {
  static const std::vector<std::string> kNames = {
      "delivered",         "avg_latency",      "latency_max",
      "requests",          "injected",         "flits_injected",
      "backlog_peak",      "bg_delivered",     "trojan_injections",
      "lob_successes",     "lob_log_hits",     "links_disabled",
      "packets_purged",    "reconfigurations", "reroutes_refused",
      "completed",         "cycles",           "util_input",
      "util_output",       "util_injection",   "util_blocked",
      "util_majority_full", "util_all_full",
  };
  return kNames;
}

std::vector<double> RunResult::metrics() const {
  return {
      static_cast<double>(traffic.packets_delivered),
      traffic.avg_latency(),
      static_cast<double>(traffic.latency_max),
      static_cast<double>(traffic.requests_generated),
      static_cast<double>(traffic.packets_injected),
      static_cast<double>(traffic.flits_injected),
      static_cast<double>(traffic.backlog_peak),
      static_cast<double>(background.packets_delivered),
      static_cast<double>(trojan_injections),
      static_cast<double>(lob_successes),
      static_cast<double>(lob_log_hits),
      static_cast<double>(sim.links_disabled),
      static_cast<double>(sim.packets_purged),
      static_cast<double>(sim.routing_reconfigurations),
      static_cast<double>(sim.reroutes_refused_disconnect),
      completed ? 1.0 : 0.0,
      static_cast<double>(cycles),
      static_cast<double>(final_util.input_port_flits),
      static_cast<double>(final_util.output_port_flits),
      static_cast<double>(final_util.injection_port_flits),
      static_cast<double>(final_util.routers_with_blocked_port),
      static_cast<double>(final_util.routers_majority_cores_full),
      static_cast<double>(final_util.routers_all_cores_full),
  };
}

MetricAggregate aggregate_values(const std::vector<double>& v) {
  MetricAggregate a;
  if (v.empty()) return a;
  double sum = 0.0;
  a.min = v.front();
  a.max = v.front();
  for (const double x : v) {
    sum += x;
    if (x < a.min) a.min = x;
    if (x > a.max) a.max = x;
  }
  a.mean = sum / static_cast<double>(v.size());
  if (v.size() >= 2) {
    double ss = 0.0;
    for (const double x : v) ss += (x - a.mean) * (x - a.mean);
    a.stddev = std::sqrt(ss / static_cast<double>(v.size() - 1));
  }
  return a;
}

std::vector<GridSummary> aggregate(const std::vector<RunResult>& runs) {
  const std::size_t nm = RunResult::metric_names().size();
  std::vector<GridSummary> out;
  // Runs arrive in expansion order: all replicates of a point adjacent.
  for (std::size_t i = 0; i < runs.size();) {
    const std::size_t point = runs[i].spec.point.linear;
    GridSummary gs;
    gs.point_linear = point;
    gs.label = runs[i].spec.point_label();
    std::vector<std::vector<double>> columns(nm);
    for (; i < runs.size() && runs[i].spec.point.linear == point; ++i) {
      if (!runs[i].ok) {
        ++gs.failures;
        continue;
      }
      const std::vector<double> m = runs[i].metrics();
      HTNOC_EXPECT(m.size() == nm);
      for (std::size_t k = 0; k < nm; ++k) columns[k].push_back(m[k]);
      ++gs.replicates;
    }
    gs.metrics.reserve(nm);
    for (std::size_t k = 0; k < nm; ++k) {
      gs.metrics.push_back(aggregate_values(columns[k]));
    }
    out.push_back(std::move(gs));
  }
  return out;
}

int SweepRunner::resolve_threads(int requested, std::size_t num_runs) {
  return resolve_threads(requested, num_runs, 1);
}

int SweepRunner::resolve_threads(int requested, std::size_t num_runs,
                                 int step_threads) {
  int n = requested;
  if (n <= 0) {
    if (const char* env = std::getenv("HTNOC_JOBS")) {
      n = std::atoi(env);
    }
  }
  if (n <= 0) {
    n = static_cast<int>(std::thread::hardware_concurrency());
    // Auto-resolution composes with the per-run parallel step: each run
    // occupies step_threads cores, so the run-level pool shrinks to keep
    // jobs x step_threads <= hardware_concurrency (explicit requests and
    // $HTNOC_JOBS are the user's call and pass through untouched).
    if (step_threads > 1) n /= step_threads;
  }
  if (n <= 0) n = 1;
  if (num_runs >= 1 && static_cast<std::size_t>(n) > num_runs) {
    n = static_cast<int>(num_runs);
  }
  return n;
}

RunResult SweepRunner::run_single(const SweepSpec& spec, const RunSpec& rs) {
  RunResult res;
  res.spec = rs;

  sim::SimConfig sc = spec.base;
  sc.mode = rs.mode;
  sc.attacks = rs.attacks;
  sc.seed = mix_seed(rs.seed, 1);
  sc.noc.seed = mix_seed(rs.seed, 2);
  sc.trace = rs.trace;
  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();

  traffic::DeliveryDispatcher disp;
  disp.install(net);

  traffic::AppProfile profile = traffic::profile_by_name(rs.profile);
  profile.injection_rate *= rs.rate_scale;
  traffic::AppTrafficModel model(net.geometry(), profile);
  traffic::TrafficGenerator::Params gp;
  gp.seed = mix_seed(rs.seed, 3);
  gp.total_requests = spec.total_requests;
  gp.domain = spec.primary_domain;
  if (spec.transform_factory) gp.packet_transform = spec.transform_factory(rs);
  traffic::TrafficGenerator gen(net, model, gp, disp);

  std::unique_ptr<traffic::TrafficGenerator> bg;
  std::unique_ptr<traffic::AppTrafficModel> bg_model;
  if (spec.background) {
    traffic::AppProfile bp = traffic::profile_by_name(spec.background->profile);
    if (spec.background->injection_rate > 0.0) {
      bp.injection_rate = spec.background->injection_rate;
    }
    bg_model = std::make_unique<traffic::AppTrafficModel>(net.geometry(), bp);
    traffic::TrafficGenerator::Params bgp;
    bgp.seed = mix_seed(rs.seed, 4);
    bgp.domain = spec.background->domain;
    bg = std::make_unique<traffic::TrafficGenerator>(net, *bg_model, bgp,
                                                     disp);
  }

  simulator.set_drop_callback([&](PacketId id) {
    gen.requeue(id);       // no-op for ids it does not own
    if (bg) bg->requeue(id);
  });

  const bool completion_mode = spec.total_requests > 0;
  const Cycle horizon = completion_mode ? spec.cycle_budget : spec.run_cycles;
  for (Cycle c = 0; c < horizon; ++c) {
    if (completion_mode && gen.done()) break;
    if (bg) bg->step();
    gen.step();
    simulator.step();
    ++res.cycles;
    if (spec.probe_period > 0 && net.now() % spec.probe_period == 0) {
      res.util_series.push_back(net.sample_utilization());
      res.throughput_series.push_back(
          {net.now(), gen.stats().packets_delivered,
           bg ? bg->stats().packets_delivered : 0});
    }
  }

  res.completed = completion_mode ? gen.done() : true;
  res.traffic = gen.stats();
  if (bg) res.background = bg->stats();
  res.sim = simulator.stats();
  for (std::size_t t = 0; t < simulator.num_trojans(); ++t) {
    res.trojan_injections += simulator.tasp(t).stats().injections;
  }
  if (simulator.has_lob()) {
    const MeshGeometry& geom = net.geometry();
    for (RouterId r = 0; r < geom.num_routers(); ++r) {
      for (int port = 0; port < 4; ++port) {
        if (!geom.has_neighbor(r, port_direction(port))) continue;
        const auto& ls = simulator.lob(r, port).stats();
        res.lob_successes += ls.successes;
        res.lob_log_hits += ls.log_hits;
      }
    }
  }
  res.final_util = net.sample_utilization();
  if (const trace::TraceSink* sink = simulator.trace_sink()) {
    res.trace = std::make_shared<const trace::TraceLog>(sink->log());
  }
  if (const verify::NetworkInvariantAuditor* aud = simulator.auditor();
      aud != nullptr && !aud->clean()) {
    res.ok = false;
    res.error = "invariant audit failed:\n" + aud->report();
    return res;
  }
  res.ok = true;
  return res;
}

SweepResult SweepRunner::run(const SweepSpec& spec) const {
  std::vector<RunSpec> runs = expand(spec);
  SweepResult out;
  out.runs.resize(runs.size());
  const int nthreads = resolve_threads(opts_.num_threads, runs.size(),
                                       spec.base.noc.step_threads);
  out.threads_used = nthreads;

  // Index-addressed result slots + an atomic work cursor: no ordering or
  // locking anywhere, and the output is independent of the schedule.
  std::atomic<std::size_t> cursor{0};
  auto worker = [&]() {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= runs.size()) return;
      try {
        out.runs[i] = run_single(spec, runs[i]);
      } catch (const std::exception& e) {
        out.runs[i].spec = runs[i];
        out.runs[i].ok = false;
        out.runs[i].error = e.what();
      } catch (...) {
        out.runs[i].spec = runs[i];
        out.runs[i].ok = false;
        out.runs[i].error = "unknown exception";
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

  out.summary = aggregate(out.runs);
  return out;
}

}  // namespace htnoc::sweep
