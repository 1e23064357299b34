// Interactive experiment explorer: compose your own attack/defense scenario
// from the command line without writing code.
//
//   $ ./explore_cli --app facesim --mode lob --attack 4:N --target dest=0
//                   --cycles 5000
//   $ ./explore_cli --help
//
// Prints a time series of throughput and saturation metrics plus a final
// summary — the fastest way to poke at the system's behaviour space.
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "count_flag.hpp"
#include "sim/simulator.hpp"
#include "stats/stats.hpp"
#include "traffic/generator.hpp"

namespace {

using namespace htnoc;

struct Options {
  traffic::AppProfile profile = traffic::blackscholes_profile();
  sim::MitigationMode mode = sim::MitigationMode::kNone;
  bool west_first = false;
  RetransmissionScheme scheme = RetransmissionScheme::kOutputBuffer;
  std::vector<LinkRef> attack_links;
  trojan::TargetKind target_kind = trojan::TargetKind::kDest;
  std::uint64_t target_value = 0;
  Cycle killsw_at = 1000;
  Cycle cycles = 4000;
  bool tdm = false;
  bool report = false;
  std::uint64_t seed = 1;
  double rate_scale = 1.0;
};

void usage() {
  std::printf(
      "explore_cli — compose a TASP attack/defense scenario\n\n"
      "  --app NAME        blackscholes|facesim|ferret|fft (default "
      "blackscholes)\n"
      "  --mode M          none|lob|reroute (default none)\n"
      "  --routing R       xy|west_first (default xy)\n"
      "  --scheme S        output|per_vc retransmission buffers (default "
      "output)\n"
      "  --attack R:D      implant a TASP on router R's link in direction "
      "D (N|S|E|W); repeatable\n"
      "  --target K=V      dest|src|dest_src|vc|mem|full =value (default "
      "dest=0); a value no flit on the fabric can carry is refused\n"
      "  --killsw CYC      enable the kill switch at cycle CYC (default "
      "1000)\n"
      "  --cycles N        simulate N cycles (default 4000)\n"
      "  --rate X          scale the app's injection rate by X\n"
      "  --tdm             enable two-domain TDM QoS\n"
      "  --report          print the full per-router pipeline report\n"
      "  --seed N          traffic seed\n"
      "A bad flag or value exits with status 2.\n");
}

Direction parse_dir(char c) {
  switch (c) {
    case 'N': return Direction::kNorth;
    case 'S': return Direction::kSouth;
    case 'E': return Direction::kEast;
    case 'W': return Direction::kWest;
    default: throw ContractViolation(std::string("bad direction ") + c);
  }
}

trojan::TargetKind parse_kind(const std::string& k) {
  if (k == "dest") return trojan::TargetKind::kDest;
  if (k == "src") return trojan::TargetKind::kSrc;
  if (k == "vc") return trojan::TargetKind::kVc;
  if (k == "mem") return trojan::TargetKind::kMem;
  if (k == "full") return trojan::TargetKind::kFull;
  if (k == "dest_src") return trojan::TargetKind::kDestSrc;
  throw ContractViolation("bad target kind " + k);
}

sim::MitigationMode parse_mode(const std::string& m) {
  if (m == "none") return sim::MitigationMode::kNone;
  if (m == "lob") return sim::MitigationMode::kLOb;
  if (m == "reroute") return sim::MitigationMode::kReroute;
  throw ContractViolation("bad mode " + m);
}

bool parse_west_first(const std::string& r) {
  if (r == "xy") return false;
  if (r == "west_first") return true;
  throw ContractViolation("bad routing " + r);
}

/// `arg` is left naming the flag being parsed, for the error message.
bool parse_args(int argc, char** argv, Options& opt, std::string& arg) {
  for (int i = 1; i < argc; ++i) {
    arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw ContractViolation(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") return false;
    if (arg == "--app") {
      opt.profile = traffic::profile_by_name(next());
    } else if (arg == "--mode") {
      opt.mode = parse_mode(next());
    } else if (arg == "--routing") {
      opt.west_first = parse_west_first(next());
    } else if (arg == "--scheme") {
      opt.scheme = retransmission_scheme_from_string(next());
    } else if (arg == "--attack") {
      const std::string v = next();
      const auto colon = v.find(':');
      if (colon == std::string::npos || colon + 2 != v.size()) {
        throw ContractViolation("--attack expects R:D, got " + v);
      }
      opt.attack_links.push_back(
          {static_cast<RouterId>(
               cli::parse_count(v.substr(0, colon), 10, kInvalidRouter - 1)),
           parse_dir(v[colon + 1])});
    } else if (arg == "--target") {
      const std::string v = next();
      const auto eq = v.find('=');
      if (eq == std::string::npos) {
        throw ContractViolation("--target expects K=V, got " + v);
      }
      opt.target_kind = parse_kind(v.substr(0, eq));
      opt.target_value = cli::parse_count(v.substr(eq + 1), 0);
    } else if (arg == "--killsw") {
      opt.killsw_at = cli::parse_count(next());
    } else if (arg == "--cycles") {
      opt.cycles = cli::parse_count(next());
    } else if (arg == "--rate") {
      opt.rate_scale = std::stod(next());
    } else if (arg == "--seed") {
      opt.seed = std::stoull(next());
    } else if (arg == "--tdm") {
      opt.tdm = true;
    } else if (arg == "--report") {
      opt.report = true;
    } else {
      throw ContractViolation("unknown flag " + arg);
    }
  }
  return true;
}

/// Refuse a --target value that no flit on the fabric carries in a field
/// the kind compares: such an implant never fires. `full` compares every
/// field, so its one value must fit all of them.
void check_target(trojan::TargetKind kind, std::uint64_t value,
                  const NocConfig& noc, const MeshGeometry& geom) {
  using trojan::TargetKind;
  const bool router_field = kind == TargetKind::kDest ||
                            kind == TargetKind::kSrc ||
                            kind == TargetKind::kDestSrc ||
                            kind == TargetKind::kFull;
  const bool vc_field = kind == TargetKind::kVc || kind == TargetKind::kFull;
  const bool mem_field = kind == TargetKind::kMem || kind == TargetKind::kFull;
  const std::string what =
      "--target " + trojan::to_string(kind) + "=" + std::to_string(value);
  if (router_field &&
      value >= static_cast<std::uint64_t>(geom.num_routers())) {
    throw ContractViolation(what + ": the fabric has " +
                            std::to_string(geom.num_routers()) + " routers");
  }
  if (vc_field && value >= static_cast<std::uint64_t>(noc.vcs_per_port)) {
    throw ContractViolation(what + ": a port has " +
                            std::to_string(noc.vcs_per_port) + " VCs");
  }
  if (mem_field && value > std::numeric_limits<std::uint32_t>::max()) {
    throw ContractViolation(what + ": memory addresses are 32 bits");
  }
}

sim::SimConfig make_config(const Options& opt) {
  sim::SimConfig sc;
  sc.noc.tdm_enabled = opt.tdm;
  sc.noc.retrans_scheme = opt.scheme;
  sc.mode = opt.mode;
  std::vector<LinkRef> links = opt.attack_links;
  if (links.empty()) links.push_back({4, Direction::kNorth});
  const MeshGeometry geom(sc.noc.mesh_width, sc.noc.mesh_height,
                          sc.noc.concentration);
  check_target(opt.target_kind, opt.target_value, sc.noc, geom);
  for (const LinkRef& l : links) {
    if (l.from >= geom.num_routers() || !geom.has_neighbor(l.from, l.dir)) {
      throw ContractViolation("--attack " + std::to_string(l.from) + ":" +
                              to_string(l.dir) +
                              ": the fabric has no such link");
    }
    sim::AttackSpec a;
    a.link = l;
    a.tasp.kind = opt.target_kind;
    a.tasp.target_dest = static_cast<RouterId>(opt.target_value);
    a.tasp.target_src = static_cast<RouterId>(opt.target_value);
    a.tasp.target_vc = static_cast<VcId>(opt.target_value);
    a.tasp.target_mem = static_cast<std::uint32_t>(opt.target_value);
    a.enable_killsw_at = opt.killsw_at;
    sc.attacks.push_back(a);
  }
  return sc;
}

/// The run the options describe: the simulator and the application
/// traffic that loads it. Building it checks the whole configuration, so
/// a value the simulator refuses fails here, before the first cycle.
struct Run {
  sim::Simulator simulator;
  traffic::DeliveryDispatcher disp;
  traffic::TrafficGenerator gen;

  explicit Run(const Options& opt)
      : simulator(make_config(opt)),
        gen(simulator.network(),
            traffic::AppTrafficModel(simulator.network().geometry(),
                                     scaled_profile(opt)),
            [&opt] {
              traffic::TrafficGenerator::Params gp;
              gp.seed = opt.seed;
              return gp;
            }(),
            disp) {
    if (opt.west_first) simulator.network().use_west_first_routing();
    disp.install(simulator.network());
    simulator.set_drop_callback([this](PacketId id) { gen.requeue(id); });
  }

  static traffic::AppProfile scaled_profile(const Options& opt) {
    traffic::AppProfile p = opt.profile;
    p.injection_rate *= opt.rate_scale;
    return p;
  }
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::unique_ptr<Run> run;
  std::string flag;
  try {
    if (!parse_args(argc, argv, opt, flag)) {
      usage();
      return 0;
    }
    flag.clear();
    run = std::make_unique<Run>(opt);
  } catch (const std::exception& e) {
    // std::sto* and cli::parse_count failures carry only a function name.
    const bool bad_number =
        !flag.empty() && (dynamic_cast<const std::invalid_argument*>(&e) ||
                          dynamic_cast<const std::out_of_range*>(&e));
    if (bad_number) {
      std::printf("error: %s: not a valid number\n\n", flag.c_str());
    } else {
      std::printf("error: %s\n\n", e.what());
    }
    usage();
    return 2;
  }
  sim::Simulator& simulator = run->simulator;
  traffic::TrafficGenerator& gen = run->gen;
  Network& net = simulator.network();

  std::printf("app=%s mode=%s routing=%s scheme=%s trojans=%zu "
              "target=%s killsw@%llu\n\n",
              opt.profile.name.c_str(), sim::to_string(opt.mode).c_str(),
              opt.west_first ? "west_first" : "xy",
              to_string(opt.scheme).c_str(), simulator.num_trojans(),
              trojan::to_string(opt.target_kind).c_str(),
              static_cast<unsigned long long>(opt.killsw_at));
  std::printf("%8s %10s %10s %8s %10s %12s\n", "cycle", "delivered",
              "thru/250c", "blocked", "cores_full", "trojan_hits");

  const Cycle report_every = 250;
  std::uint64_t prev = 0;
  for (Cycle c = 0; c < opt.cycles; ++c) {
    gen.step();
    simulator.step();
    if ((c + 1) % report_every == 0) {
      const auto u = net.sample_utilization();
      std::uint64_t hits = 0;
      for (std::size_t t = 0; t < simulator.num_trojans(); ++t) {
        hits += simulator.tasp(t).stats().injections;
      }
      std::printf("%8llu %10llu %10llu %8d %10d %12llu\n",
                  static_cast<unsigned long long>(c + 1),
                  static_cast<unsigned long long>(
                      gen.stats().packets_delivered),
                  static_cast<unsigned long long>(
                      gen.stats().packets_delivered - prev),
                  u.routers_with_blocked_port, u.routers_all_cores_full,
                  static_cast<unsigned long long>(hits));
      prev = gen.stats().packets_delivered;
    }
  }

  std::printf("\nsummary: %llu delivered, avg latency %.1f, backlog %zu, "
              "links disabled %d, packets purged %llu\n",
              static_cast<unsigned long long>(gen.stats().packets_delivered),
              gen.stats().avg_latency(), gen.backlog_size(),
              simulator.stats().links_disabled,
              static_cast<unsigned long long>(
                  simulator.stats().packets_purged));
  if (opt.report) {
    std::printf("\n");
    stats::print_network_report(std::cout, net);
  }
  return 0;
}
