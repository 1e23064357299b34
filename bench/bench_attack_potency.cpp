// Attack potency (paper Sec. III-A, "Attack Potency" / "Link Selection"):
//   1. How many TASP implants does a chip-wide DoS need, and how much does
//      each extra trojan add to the attack's abruptness?
//   2. If the attacker places trojans on random links (because primary-core
//      locations vary at runtime), what is the probability of sighting the
//      target within a deadline, per target kind?
#include <cstdio>

#include "bench_common.hpp"

namespace {

using namespace htnoc;

/// Candidate implant sites roughly ordered by how much dest-0 traffic they
/// carry under x-y routing (the attacker's Fig. 1 analysis).
const std::vector<LinkRef>& implant_sites() {
  static const std::vector<LinkRef> sites = {
      {4, Direction::kNorth}, {1, Direction::kWest},  {8, Direction::kNorth},
      {5, Direction::kWest},  {2, Direction::kWest},  {9, Direction::kWest},
      {12, Direction::kNorth}, {6, Direction::kWest},
  };
  return sites;
}

struct PotencyResult {
  Cycle cycles_to_half_throughput = 0;  ///< 0 = never within horizon
  int blocked_at_200 = 0;
  int cores_full_at_1500 = 0;
};

PotencyResult run_with_n_trojans(int n) {
  sim::SimConfig sc;
  sc.mode = sim::MitigationMode::kNone;
  for (int i = 0; i < n; ++i) {
    sim::AttackSpec a;
    a.link = implant_sites()[static_cast<std::size_t>(i)];
    a.tasp.kind = trojan::TargetKind::kDest;
    a.tasp.target_dest = 0;
    a.enable_killsw_at = 1500;
    sc.attacks.push_back(a);
  }
  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppTrafficModel model(net.geometry(),
                                 traffic::blackscholes_profile());
  traffic::TrafficGenerator::Params gp;
  gp.seed = 1;
  traffic::TrafficGenerator gen(net, model, gp, disp);

  PotencyResult res;
  // Healthy throughput estimate from the warm-up.
  std::uint64_t delivered_prev = 0;
  double healthy_rate = 0.0;
  for (Cycle c = 0; c < 3000; ++c) {
    gen.step();
    simulator.step();
    if (c == 1499) {
      healthy_rate = static_cast<double>(gen.stats().packets_delivered) / 1500.0;
      delivered_prev = gen.stats().packets_delivered;
    }
    if (c >= 1500 && (c - 1500) % 10 == 9) {
      const std::uint64_t delivered = gen.stats().packets_delivered;
      const double rate =
          static_cast<double>(delivered - delivered_prev) / 10.0;
      delivered_prev = delivered;
      if (res.cycles_to_half_throughput == 0 && rate < healthy_rate / 2.0) {
        res.cycles_to_half_throughput = c - 1500 + 1;
      }
    }
    if (c == 1700) {
      res.blocked_at_200 = net.sample_utilization().routers_with_blocked_port;
    }
  }
  res.cores_full_at_1500 = net.sample_utilization().routers_all_cores_full;
  return res;
}

/// Probability that a TASP on a uniformly random mesh link sights its
/// target within `deadline` cycles of enabling, estimated by running every
/// link once (the traffic is deterministic per seed).
double sighting_probability(trojan::TargetKind kind, Cycle deadline) {
  NocConfig cfg;
  Network net(cfg);
  const auto links = net.all_links();
  int sighted = 0;
  // One network with a dormant-then-enabled trojan per link would have the
  // trojans interfere (they all inject), so run one simulation per link
  // with a single trojan and count sightings. Deterministic traffic makes
  // this an exact coverage measure rather than an estimate.
  for (const LinkRef& l : links) {
    sim::SimConfig sc;
    sim::AttackSpec a;
    a.link = l;
    a.tasp.kind = kind;
    a.tasp.target_dest = 0;
    a.tasp.target_src = 15;  // dest_src hunts the far-corner -> primary flow
    a.tasp.target_vc = 0;
    a.tasp.target_mem = traffic::blackscholes_profile().mem_base;
    a.tasp.mem_mask = 0xF0000000u;
    a.tasp.min_gap = 1000000000ULL;  // sight, never strike (pure recon)
    a.enable_killsw_at = 0;
    sc.attacks.push_back(a);
    sim::Simulator simulator(std::move(sc));
    Network& n2 = simulator.network();
    traffic::DeliveryDispatcher disp;
    disp.install(n2);
    traffic::AppTrafficModel model(n2.geometry(),
                                   traffic::blackscholes_profile());
    traffic::TrafficGenerator::Params gp;
    gp.seed = 5;
    traffic::TrafficGenerator gen(n2, model, gp, disp);
    for (Cycle c = 0; c < deadline; ++c) {
      gen.step();
      simulator.step();
    }
    if (simulator.tasp(0).stats().target_sightings > 0) ++sighted;
  }
  return static_cast<double>(sighted) / static_cast<double>(links.size());
}

}  // namespace

int main() {
  using namespace htnoc;
  bench::print_header("Attack potency (Sec. III)",
                      "trojan count, abruptness, random-placement odds");

  std::printf("\n1) DoS abruptness vs number of implanted TASPs "
              "(dest-0 targeted, best sites first):\n");
  std::printf("%9s %24s %16s %20s\n", "trojans", "t_to_half_thruput(cyc)",
              "blocked@t+200", "cores_full@t+1500");
  for (const int n : {1, 2, 4, 8}) {
    const PotencyResult r = run_with_n_trojans(n);
    std::printf("%9d %24llu %16d %20d\n", n,
                static_cast<unsigned long long>(r.cycles_to_half_throughput),
                r.blocked_at_200, r.cores_full_at_1500);
  }
  std::printf("(paper: a single TASP suffices; more trojans increase the "
              "abruptness of the attack)\n");

  std::printf("\n2) Probability a randomly placed TASP sights its target "
              "within 2000 cycles (Blackscholes traffic):\n");
  std::printf("%10s %12s\n", "target", "P(sight)");
  for (const auto kind :
       {trojan::TargetKind::kDest, trojan::TargetKind::kSrc,
        trojan::TargetKind::kDestSrc, trojan::TargetKind::kMem,
        trojan::TargetKind::kVc}) {
    std::printf("%10s %11.0f%%\n", trojan::to_string(kind).c_str(),
                100.0 * sighting_probability(kind, 2000));
  }
  std::printf("(paper: random placement still has a high probability of "
              "sniffing the intended target — wider comparators sight less "
              "often, VC-keyed ones everywhere)\n\n");
  return 0;
}
