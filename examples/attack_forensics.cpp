// attack_forensics — the paper's Fig. 11 DoS cascade, captured by the event
// tracer and reconstructed as an attack-forensics timeline.
//
//   $ ./attack_forensics [out_dir]
//
// Runs the single-TASP, no-mitigation scenario (warm-up, kill switch at
// cycle 1500, saturation by ~3000), then:
//   * prints the forensic timeline (trigger -> first uncorrectable NACK ->
//     saturation wavefront) to stdout,
//   * writes attack_forensics.trace.json (Chrome trace-event format; load
//     it in Perfetto or chrome://tracing), .trace.bin and .trace.csv into
//     out_dir (default "."),
//   * cross-checks the wavefront against the UtilizationProbe time-series —
//     the trace and the probe observe the same network, so the blocked-
//     router counts must agree exactly.
//
// Exit code is non-zero when the cross-check fails.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/simulator.hpp"
#include "stats/stats.hpp"
#include "trace/export.hpp"
#include "trace/forensics.hpp"
#include "traffic/generator.hpp"

int main(int argc, char** argv) {
  using namespace htnoc;
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  // Fig. 11 setup: one dest-0 TASP on the column-0 feeder link, no
  // mitigation, kill switch thrown after a 1500-cycle warm-up.
  sim::SimConfig sc;
  sim::AttackSpec attack;
  attack.link = {4, Direction::kNorth};
  attack.tasp.kind = trojan::TargetKind::kDest;
  attack.tasp.target_dest = 0;
  attack.enable_killsw_at = 1500;
  sc.attacks.push_back(attack);
  sc.mode = sim::MitigationMode::kNone;
  sc.trace.enabled = true;
  sc.trace.capacity = std::size_t{1} << 20;  // keep the whole run

  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();

  traffic::DeliveryDispatcher dispatcher;
  dispatcher.install(net);
  traffic::AppTrafficModel model(net.geometry(),
                                 traffic::blackscholes_profile());
  traffic::TrafficGenerator::Params params;
  params.seed = 7;
  traffic::TrafficGenerator gen(net, model, params, dispatcher);

  stats::UtilizationProbe probe(50);
  for (int i = 0; i < 3000; ++i) {
    gen.step();
    simulator.step();
    probe.maybe_sample(net);
  }

  const trace::TraceLog log = simulator.trace_sink()->log();
  const trace::ForensicReport report = trace::analyze(log);

  std::ofstream json(out_dir + "/attack_forensics.trace.json");
  trace::write_chrome_json(json, log);
  std::ofstream bin(out_dir + "/attack_forensics.trace.bin",
                    std::ios::binary);
  trace::write_binary(bin, log);
  std::ofstream csv(out_dir + "/attack_forensics.trace.csv");
  trace::write_csv(csv, log);

  std::ofstream timeline(out_dir + "/attack_forensics.timeline.txt");
  trace::print_timeline(timeline, log, report);

  std::printf("wrote %s/attack_forensics.trace.{json,bin,csv} and "
              ".timeline.txt\n\n",
              out_dir.c_str());
  std::ostringstream to_stdout;
  trace::print_timeline(to_stdout, log, report);
  std::fputs(to_stdout.str().c_str(), stdout);

  // Cross-check: the trace's view of the final blocked-router set must
  // match the utilization probe's independent measurement.
  const auto final_util = net.sample_utilization();
  std::printf("\ncross-check vs UtilizationProbe:\n");
  std::printf("  trace blocked-at-end routers: %zu, probe: %d\n",
              report.routers_blocked_at_end,
              final_util.routers_with_blocked_port);
  std::printf("  trace deadlocked cores: %zu, probe all-cores-full "
              "routers: %d\n",
              report.cores_blocked_at_end, final_util.routers_all_cores_full);
  if (report.routers_blocked_at_end !=
      static_cast<std::size_t>(final_util.routers_with_blocked_port)) {
    std::fprintf(stderr,
                 "MISMATCH: trace and probe disagree on blocked routers\n");
    return 1;
  }
  std::printf("  agreement: OK\n");
  return 0;
}
