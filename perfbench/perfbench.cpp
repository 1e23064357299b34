// perfbench — the fixed-window, state-verified benchmark of the htnoc
// simulator (see README.md beside this file).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--window CYCLES] [--warmup CYCLES] [--scenarios N]
//             [--expect-hash HEX] [--expect-delivered N]
//             [--trace-out FILE] [--commit ID]
//             [--self-test-fault killswitch-off|hop-model-drop]
//
// A simulation workload warms a fabric up, saves it with
// verify::save_snapshot, and then repeats one operation until --seconds have
// passed: restore the snapshot into a fresh Simulator, step exactly
// --window cycles, and check the end state. Timed repeats of the set-up run
// between operations. The campaign workload runs
// snapshot-forked FaultCampaigns instead. Every number is host time unless
// it is a count; every count is of simulated events.
//
// The benchmark stays outside the program: it calls each layer's public
// functions, reads each layer's public stats() counters, and records its
// spans (with --trace 1) around those calls. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics; the lines before it carry the run's metadata and its counts.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "sim/simulator.hpp"
#include "span_log.hpp"
#include "sweep/spec.hpp"
#include "traffic/app_profile.hpp"
#include "traffic/generator.hpp"
#include "verify/campaign.hpp"
#include "verify/snapshot.hpp"

namespace perfbench {
namespace {

using namespace htnoc;

constexpr std::size_t kSetupRepeats = 9;
/// Cycles the hop check may step an injection-free fabric before calling it
/// wedged.
constexpr Cycle kDrainLimit = 100000;

// ---------------------------------------------------------------- utilities

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ms(Clock::time_point a, Clock::time_point b) {
  return 1e3 * seconds(a, b);
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident memory of this program, from /proc/self/status VmHWM.
/// (getrusage's ru_maxrss would also count the parent's memory: Linux keeps
/// the larger of the two across the fork and exec that started us.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return static_cast<double>(kib) / 1024.0;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// The measuring loops run whole operations for --seconds: another one
/// starts only while at least half of it (judged by the last) still fits.
bool time_left(Clock::time_point start, double last_op_s, double budget_s) {
  return seconds(start, Clock::now()) + 0.5 * last_op_s < budget_s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Independent per-purpose streams drawn from the one --seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  return splitmix64(seed ^ splitmix64(salt));
}

class Fnv1a {
 public:
  void bytes(const std::vector<std::uint8_t>& b) {
    for (const std::uint8_t x : b) mix(x);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void str(const std::string& s) {
    for (const char ch : s) mix(static_cast<std::uint8_t>(ch));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void mix(std::uint8_t x) {
    h_ ^= x;
    h_ *= 0x100000001B3ull;
  }
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out += ch;
  }
  return out;
}

// ----------------------------------------------------------------- options

enum class Fault { kNone, kKillSwitchOff, kHopModelDrop };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Cycle window = 0;             ///< 0 = the workload's default.
  Cycle warmup = 0;             ///< 0 = the workload's default.
  std::uint64_t scenarios = 0;  ///< 0 = the campaign's default.
  std::optional<std::uint64_t> expect_hash;
  std::optional<std::uint64_t> expect_delivered;
  std::string trace_out;
  std::string commit = "unknown";
  Fault fault = Fault::kNone;
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + key);
    }
    const std::string v = argv[++i];
    if (key == "--workload") {
      o.workload = v;
    } else if (key == "--seed") {
      o.seed = std::stoull(v, nullptr, 0);
    } else if (key == "--seconds") {
      o.seconds = std::stod(v);
    } else if (key == "--trace") {
      o.trace = v == "1";
    } else if (key == "--window") {
      o.window = std::stoull(v);
    } else if (key == "--warmup") {
      o.warmup = std::stoull(v);
    } else if (key == "--scenarios") {
      o.scenarios = std::stoull(v);
    } else if (key == "--expect-hash") {
      o.expect_hash = std::stoull(v, nullptr, 16);
    } else if (key == "--expect-delivered") {
      o.expect_delivered = std::stoull(v);
    } else if (key == "--trace-out") {
      o.trace_out = v;
    } else if (key == "--commit") {
      o.commit = v;
    } else if (key == "--self-test-fault") {
      if (v == "killswitch-off") {
        o.fault = Fault::kKillSwitchOff;
      } else if (v == "hop-model-drop") {
        o.fault = Fault::kHopModelDrop;
      } else {
        throw std::invalid_argument("unknown self-test fault " + v);
      }
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (o.workload != "cmesh4_tasp_lob" && o.workload != "mesh16_uniform" &&
      o.workload != "mesh16_par4" && o.workload != "campaign_fork") {
    throw std::invalid_argument("unknown or missing --workload '" +
                                o.workload + "'");
  }
  if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

// ---------------------------------------------------------------- counters

/// Cumulative simulated-event counts read from each layer's public stats().
/// The difference of two readings is what a window did.
using Counters = std::map<std::string, std::uint64_t>;

const char* const kCounterNames[] = {
    "cycles",         "delivered",
    "router_steps",   "router_skips",
    "flit_hops",      "flits_switched",
    "va_stalls_no_free_vc",
    "sa_stalls_no_credit",
    "sa_stalls_no_slot",
    "sa_arbitration_losses",
    "inject_rejects", "retransmissions",
    "nacks",          "tasp_flits_inspected",
    "tasp_target_sightings",
    "tasp_injections",
    "lob_attempts",   "lob_successes",
    "uncorrectable"};

Counters read_counters(sim::Simulator& s) {
  Counters c;
  for (const char* name : kCounterNames) c[name] = 0;
  Network& net = s.network();
  const MeshGeometry& geom = net.geometry();
  c["cycles"] = net.now();
  c["delivered"] = net.packets_delivered();
  c["router_steps"] = net.step_stats().router_steps;
  c["router_skips"] = net.step_stats().router_skips;
  for (const LinkRef& l : net.all_links()) {
    c["flit_hops"] += net.link(l.from, l.dir).stats().phits_sent;
  }
  for (RouterId r = 0; r < geom.num_routers(); ++r) {
    Router& router = net.router(r);
    const Router::Stats& rs = router.stats();
    c["flits_switched"] += rs.flits_switched;
    c["va_stalls_no_free_vc"] += rs.va_stalls_no_free_vc;
    c["sa_stalls_no_credit"] += rs.sa_stalls_no_credit;
    c["sa_stalls_no_slot"] += rs.sa_stalls_no_slot;
    c["sa_arbitration_losses"] += rs.sa_arbitration_losses();
    for (int p = 0; p < router.num_ports(); ++p) {
      c["retransmissions"] += router.output(p).stats().retransmissions;
      c["nacks"] += router.output(p).stats().nacks;
    }
  }
  for (int core = 0; core < geom.num_cores(); ++core) {
    NetworkInterface& ni = net.ni(static_cast<NodeId>(core));
    c["inject_rejects"] += ni.stats().inject_rejects;
    c["retransmissions"] += ni.injection_port().stats().retransmissions;
    c["nacks"] += ni.injection_port().stats().nacks;
  }
  for (std::size_t t = 0; t < s.num_trojans(); ++t) {
    const trojan::Tasp::Stats& ts = s.tasp(t).stats();
    c["tasp_flits_inspected"] += ts.flits_inspected;
    c["tasp_target_sightings"] += ts.target_sightings;
    c["tasp_injections"] += ts.injections;
  }
  if (s.config().mode != sim::MitigationMode::kNone) {
    for (RouterId r = 0; r < geom.num_routers(); ++r) {
      for (int p = 0; p < 4; ++p) {
        c["uncorrectable"] += s.detector(r).port_stats(p).uncorrectable;
      }
    }
  }
  if (s.has_lob()) {
    for (RouterId r = 0; r < geom.num_routers(); ++r) {
      for (int p = 0; p < 4; ++p) {
        if (!geom.has_neighbor(r, port_direction(p))) continue;
        c["lob_attempts"] += s.lob(r, p).stats().obfuscated_attempts;
        c["lob_successes"] += s.lob(r, p).stats().successes;
      }
    }
  }
  return c;
}

Counters operator-(const Counters& a, const Counters& b) {
  Counters d;
  for (const auto& [k, v] : a) d[k] = v - b.at(k);
  return d;
}

std::string counters_json(const Counters& c) {
  std::string out;
  for (const auto& [k, v] : c) {
    out += (out.empty() ? "\"" : ", \"") + k + "\": " + std::to_string(v);
  }
  return out;
}

// --------------------------------------------------------------- workloads

enum class Traffic { kBlackscholes, kUniform };

struct SimWorkload {
  sim::SimConfig config;
  Traffic traffic = Traffic::kBlackscholes;
  std::uint64_t traffic_seed = 1;
  int packets_per_cycle = 0;  ///< kUniform only.
  Cycle warmup = 0;
  Cycle window = 0;
  bool attacked = false;    ///< Require the trojan and L-Ob to act in-window.
  bool hop_check = false;   ///< Cross-check flit-hops against the XY model.
  bool serial_reference = false;  ///< Compare against a step_threads=1 run.
};

SimWorkload make_sim_workload(const Options& o) {
  SimWorkload w;
  sim::SimConfig& sc = w.config;
  sc.seed = derive(o.seed, 1);
  sc.noc.seed = derive(o.seed, 2);
  w.traffic_seed = derive(o.seed, 3);
  if (o.workload == "cmesh4_tasp_lob") {
    // The paper's fabric: default 4x4 cmesh with 64 cores, blackscholes
    // traffic, L-Ob, and one TASP on router 4's northbound link tuned to
    // destination 0 with its kill switch on from cycle 0 (the same implant
    // as bench::paper_attack(0)).
    sc.mode = sim::MitigationMode::kLOb;
    sim::AttackSpec a;
    a.link = {4, Direction::kNorth};
    a.tasp.kind = trojan::TargetKind::kDest;
    a.tasp.target_dest = 0;
    a.enable_killsw_at = o.fault == Fault::kKillSwitchOff
                             ? std::numeric_limits<Cycle>::max()
                             : 0;
    sc.attacks.push_back(a);
    w.traffic = Traffic::kBlackscholes;
    w.warmup = 5000;
    w.window = 20000;
    w.attacked = true;
  } else {  // mesh16_uniform, mesh16_par4
    sc.noc.topology = TopologyKind::kMesh;
    sc.noc.mesh_width = 16;
    sc.noc.mesh_height = 16;
    sc.noc.concentration = 1;
    sc.mode = sim::MitigationMode::kNone;
    const bool par = o.workload == "mesh16_par4";
    sc.noc.step_threads = par ? 4 : 1;
    w.traffic = Traffic::kUniform;
    w.packets_per_cycle = 8;
    w.warmup = 500;
    w.window = 1000;
    w.hop_check = true;
    w.serial_reference = par;
  }
  if (o.window > 0) w.window = o.window;
  if (o.warmup > 0) w.warmup = o.warmup;
  return w;
}

/// Benchmark-side traffic state the simulator snapshot does not hold: the
/// uniform injector's RNG stream and its running route-model totals.
struct InjectorState {
  std::array<std::uint64_t, 4> rng{};
  std::uint64_t packets = 0;    ///< Packets the network accepted.
  std::uint64_t flit_hops = 0;  ///< Sum of length x XY hops over them.
};

struct Snapshot {
  std::vector<std::uint8_t> sim;
  InjectorState injector;
};

/// The end state one operation is judged by.
struct EndState {
  std::uint64_t hash = 0;
  std::uint64_t delivered = 0;
  bool operator==(const EndState&) const = default;
};

EndState end_state(const Snapshot& s, std::uint64_t delivered) {
  Fnv1a h;
  h.bytes(s.sim);
  for (const std::uint64_t v : s.injector.rng) h.u64(v);
  h.u64(s.injector.packets);
  h.u64(s.injector.flit_hops);
  return {h.value(), delivered};
}

/// One live simulation plus the traffic that drives it. The generator and
/// the drop callback point into the rig, so it never moves.
class Rig {
 public:
  Rig(const SimWorkload& w, int step_threads)
      : w_(w), sim_(config(w, step_threads)), rng_(w.traffic_seed) {
    Network& net = sim_.network();
    if (w.traffic == Traffic::kBlackscholes) {
      dispatcher_.install(net);
      traffic::TrafficGenerator::Params gp;
      gp.seed = w.traffic_seed;
      gen_ = std::make_unique<traffic::TrafficGenerator>(
          net,
          traffic::AppTrafficModel(net.geometry(),
                                   traffic::blackscholes_profile()),
          gp, dispatcher_);
      sim_.set_drop_callback([this](PacketId id) { gen_->requeue(id); });
    }
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] const InjectorState& injector() const noexcept {
    return inj_;
  }
  /// Flit-hops of the last accepted packet that crossed a link.
  [[nodiscard]] std::uint64_t last_packet_flit_hops() const noexcept {
    return last_hops_;
  }

  void traffic_step() {
    if (gen_) {
      gen_->step();
    } else {
      inject_uniform();
    }
  }
  void step() { sim_.step(); }

  [[nodiscard]] Snapshot save() {
    inj_.rng = rng_.state();
    std::vector<const traffic::TrafficGenerator*> gens;
    if (gen_) gens.push_back(gen_.get());
    return {verify::save_snapshot(sim_, gens), inj_};
  }
  void load(const Snapshot& s) {
    std::vector<traffic::TrafficGenerator*> gens;
    if (gen_) gens.push_back(gen_.get());
    verify::load_snapshot(sim_, gens, s.sim);
    inj_ = s.injector;
    rng_.set_state(inj_.rng);
  }

 private:
  static sim::SimConfig config(const SimWorkload& w, int step_threads) {
    sim::SimConfig c = w.config;
    c.noc.step_threads = step_threads;
    return c;
  }

  /// Uniform random source and destination, 1-4 flits, injected through
  /// Network::try_inject (packets the NI refuses are dropped, not retried).
  void inject_uniform() {
    Network& net = sim_.network();
    const MeshGeometry& geom = net.geometry();
    const auto cores = static_cast<std::uint64_t>(geom.num_cores());
    for (int i = 0; i < w_.packets_per_cycle; ++i) {
      PacketInfo info;
      info.id = net.next_packet_id();
      info.src_core = static_cast<NodeId>(rng_.next_below(cores));
      info.dest_core = static_cast<NodeId>(rng_.next_below(cores));
      info.src_router = geom.router_of_core(info.src_core);
      info.dest_router = geom.router_of_core(info.dest_core);
      info.length = static_cast<int>(rng_.next_in(1, 4));
      info.inject_cycle = net.now();
      payload_.assign(static_cast<std::size_t>(info.length), 0xDA7Aull);
      if (!net.try_inject(info, payload_)) continue;
      const std::uint64_t hops = static_cast<std::uint64_t>(info.length) *
                                 xy_hops(info.src_router, info.dest_router);
      ++inj_.packets;
      inj_.flit_hops += hops;
      if (hops > 0) last_hops_ = hops;
    }
  }

  /// The route model: an XY route on a width-w mesh (router id = y*w + x)
  /// crosses |dx| + |dy| inter-router links, computed here from the ids
  /// alone rather than from the simulator's own geometry helpers.
  [[nodiscard]] std::uint64_t xy_hops(RouterId a, RouterId b) const {
    const int width = w_.config.noc.mesh_width;
    const int dx = std::abs(a % width - b % width);
    const int dy = std::abs(a / width - b / width);
    return static_cast<std::uint64_t>(dx + dy);
  }

  const SimWorkload& w_;
  sim::Simulator sim_;
  traffic::DeliveryDispatcher dispatcher_;
  std::unique_ptr<traffic::TrafficGenerator> gen_;
  Rng rng_;
  InjectorState inj_;
  std::uint64_t last_hops_ = 0;
  std::vector<std::uint64_t> payload_;
};

// ----------------------------------------------------------------- reports

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// What one operation did (identical for every one); on campaign_fork,
  /// the sum over the run's campaigns.
  Counters counts;
  std::optional<EndState> end;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// Layer metrics a workload cannot observe from outside the program are
/// reported as zero (the table in README.md says which).
void add_layer_metrics(Report& rep, const std::map<std::string, double>& m) {
  static const std::pair<const char*, const char*> kLayer[] = {
      {"traffic.us_per_cycle", "us"},
      {"sim.step_us_p50", "us"},
      {"sim.step_us_p99", "us"},
      {"sim.step_samples", "count"},
      {"noc.ns_per_router_step", "ns"},
      {"noc.active_router_ratio", "ratio"},
      {"noc.flit_hops", "count"},
      {"noc.flits_switched", "count"},
      {"noc.va_stalls_no_free_vc", "count"},
      {"noc.sa_stalls_no_credit", "count"},
      {"noc.sa_stalls_no_slot", "count"},
      {"noc.sa_arbitration_losses", "count"},
      {"noc.inject_rejects", "count"},
      {"noc.retransmissions", "count"},
      {"noc.nacks", "count"},
      {"noc.cpu_per_wall", "ratio"},
      {"trojan.flits_inspected", "count"},
      {"trojan.target_sightings", "count"},
      {"trojan.injections", "count"},
      {"mitigation.lob_attempts", "count"},
      {"mitigation.lob_successes", "count"},
      {"mitigation.lob_success_ratio", "ratio"},
      {"mitigation.uncorrectable", "count"},
      {"verify.save_ms", "ms"},
      {"verify.load_ms", "ms"},
      {"verify.snapshot_bytes", "bytes"},
      {"verify.scenario_cycles", "count"},
      {"verify.audits", "count"},
      {"verify.flits_tracked", "count"},
      {"verify.us_per_audited_cycle", "us"},
      {"bench.check_ms", "ms"},
      {"bench.trace_overhead_pct", "%"},
  };
  for (const auto& [name, unit] : kLayer) {
    const auto it = m.find(name);
    rep.per_layer.push_back({name, it == m.end() ? 0.0 : it->second, unit});
  }
}

/// Percent by which traced operations ran slower than untraced ones.
double overhead_pct(const std::vector<double>& untraced,
                    const std::vector<double>& traced) {
  if (untraced.empty() || traced.empty()) return 0.0;
  const double u = median(untraced);
  return u == 0.0 ? 0.0 : 100.0 * (u - median(traced)) / u;
}

// ----------------------------------------------------- simulation workloads

/// Everything the traced windows accumulate for the per-layer metrics.
struct LayerTimes {
  std::vector<double> step_us;
  double traffic_s = 0.0;
  double step_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t router_steps = 0;
};

/// Step the restored rig through the timed window. Traced windows record a
/// span around every traffic step and Simulator::step; only the first one's
/// spans go to the trace file, the durations of all feed the statistics.
void run_window(Rig& rig, Cycle window, LayerTimes* lt, SpanLog* log,
                int parent) {
  if (lt == nullptr) {
    for (Cycle c = 0; c < window; ++c) {
      rig.traffic_step();
      rig.step();
    }
    return;
  }
  lt->step_us.reserve(lt->step_us.size() + window);
  for (Cycle c = 0; c < window; ++c) {
    const auto t0 = Clock::now();
    rig.traffic_step();
    const auto t1 = Clock::now();
    rig.step();
    const auto t2 = Clock::now();
    lt->traffic_s += seconds(t0, t1);
    lt->step_s += seconds(t1, t2);
    lt->step_us.push_back(1e6 * seconds(t1, t2));
    if (log != nullptr) {
      log->add("traffic.step", t0, t1, parent);
      log->add("Simulator::step", t1, t2, parent);
    }
  }
}

/// Stop injecting, step until the fabric drains, and require the flit-hops
/// on inter-router links to equal the route model's count.
std::string hop_check(Rig& rig, Fault fault) {
  Network& net = rig.sim().network();
  for (Cycle c = 0; !net.quiescent(); ++c) {
    if (c >= kDrainLimit) {
      return "fabric did not drain within " + std::to_string(kDrainLimit) +
             " cycles";
    }
    rig.step();
  }
  std::uint64_t measured = 0;
  for (const LinkRef& l : net.all_links()) {
    measured += net.link(l.from, l.dir).stats().phits_sent;
  }
  std::uint64_t modelled = rig.injector().flit_hops;
  if (fault == Fault::kHopModelDrop) modelled -= rig.last_packet_flit_hops();
  if (measured != modelled) {
    return "hop check: links carried " + std::to_string(measured) +
           " flit-hops, XY route model predicts " + std::to_string(modelled);
  }
  return {};
}

/// The checks every operation's end state must pass; empty when it does.
std::string check_window(const Options& o, const SimWorkload& w,
                         const Report& rep, Rig& rig, const EndState& got,
                         const Counters& d) {
  if (rep.end && !(got == *rep.end)) {
    return "end state " + hex(got.hash) +
           " differs from the first operation's " + hex(rep.end->hash);
  }
  if (o.expect_hash && got.hash != *o.expect_hash) {
    return "end-state hash " + hex(got.hash) + " != recorded " +
           hex(*o.expect_hash);
  }
  if (o.expect_delivered && got.delivered != *o.expect_delivered) {
    return "delivered " + std::to_string(got.delivered) + " != recorded " +
           std::to_string(*o.expect_delivered);
  }
  if (std::string inv = rig.sim().network().check_invariants();
      !inv.empty()) {
    return "invariant: " + inv;
  }
  if (w.attacked &&
      (d.at("tasp_injections") == 0 || d.at("lob_successes") == 0)) {
    return "attack not live in the window: " +
           std::to_string(d.at("tasp_injections")) + " TASP injections, " +
           std::to_string(d.at("lob_successes")) + " L-Ob successes";
  }
  return {};
}

/// The checks only the first operation runs: the serial-equivalence run and
/// the hop check (which steps the rig past its end state).
std::string check_first_window(const Options& o, const SimWorkload& w,
                               const Snapshot& blob, Rig& rig,
                               const EndState& got) {
  if (w.serial_reference) {
    Rig serial(w, 1);
    serial.load(blob);
    run_window(serial, w.window, nullptr, nullptr, SpanLog::kNoParent);
    const EndState ref =
        end_state(serial.save(), serial.sim().network().packets_delivered());
    if (!(ref == got)) {
      return "step_threads=" + std::to_string(w.config.noc.step_threads) +
             " ends at " + hex(got.hash) + ", step_threads=1 at " +
             hex(ref.hash);
    }
  }
  return w.hop_check ? hop_check(rig, o.fault) : std::string{};
}

/// One set-up: construct, warm up, save, and load into a fresh simulator.
/// Returns the saved snapshot and the set-up's host seconds.
std::pair<Snapshot, double> set_up(const SimWorkload& w, int threads,
                                   SpanLog* log, std::vector<double>& save_ms,
                                   std::vector<double>& load_ms) {
  const auto t0 = Clock::now();
  const int sid = log != nullptr ? log->open("setup", t0) : SpanLog::kNoParent;
  Snapshot s;
  {
    Rig warm(w, threads);
    const auto tw = Clock::now();
    for (Cycle c = 0; c < w.warmup; ++c) {
      warm.traffic_step();
      warm.step();
    }
    const auto ts = Clock::now();
    s = warm.save();
    const auto te = Clock::now();
    save_ms.push_back(ms(ts, te));
    if (log != nullptr) {
      log->add("warmup", tw, ts, sid);
      log->add("verify::save_snapshot", ts, te, sid);
    }
  }
  Rig fresh(w, threads);
  const auto tl = Clock::now();
  fresh.load(s);
  const auto t1 = Clock::now();
  load_ms.push_back(ms(tl, t1));
  if (log != nullptr) {
    log->add("verify::load_snapshot", tl, t1, sid);
    log->close(sid, t1);
  }
  return {std::move(s), seconds(t0, t1)};
}

Report run_sim(const Options& o, SpanLog* log) {
  const SimWorkload w = make_sim_workload(o);
  const int threads = w.config.noc.step_threads;
  Report rep;

  // The first set-up makes the snapshot every operation restores. It is not
  // counted: it pays the process's one-time costs (first touch of the heap,
  // lazy binding, thread start-up). kSetupRepeats more are spread evenly
  // over the measuring phase, so their median, setup_s, samples the host
  // over the same period as the windows do. Each must save the same bytes,
  // which checks that warm-up is deterministic.
  std::vector<double> setup_s, save_ms, load_ms;
  const Snapshot blob = set_up(w, threads, log, save_ms, load_ms).first;
  auto timed_set_up = [&] {
    auto [s, secs] = set_up(w, threads, log, save_ms, load_ms);
    if (s.sim != blob.sim) {
      throw std::runtime_error("warm-up is not deterministic: set-up " +
                               std::to_string(setup_s.size() + 1) +
                               " saved different snapshot bytes");
    }
    setup_s.push_back(secs);
  };

  // The timed phase: restore, step exactly `window` cycles, check.
  std::vector<double> cps, cps_traced, ops, check_ms;
  LayerTimes lt;
  const auto phase = Clock::now();
  double last_op_s = 0.0;
  for (std::uint64_t i = 0; i == 0 || time_left(phase, last_op_s, o.seconds);
       ++i) {
    if (setup_s.size() < kSetupRepeats &&
        seconds(phase, Clock::now()) >=
            o.seconds * static_cast<double>(setup_s.size()) / kSetupRepeats) {
      timed_set_up();
    }
    ++rep.attempted;
    const auto op_start = Clock::now();
    const bool traced = log != nullptr && i % 2 == 0;
    SpanLog* fine = traced && i == 0 ? log : nullptr;
    try {
      const auto t0 = Clock::now();
      const int wid =
          log != nullptr ? log->open("operation", t0) : SpanLog::kNoParent;
      Rig rig(w, threads);
      const auto tl = Clock::now();
      rig.load(blob);
      const auto t1 = Clock::now();
      const Counters c0 = read_counters(rig.sim());
      const double cpu0 = cpu_seconds();
      const auto t2 = Clock::now();
      run_window(rig, w.window, traced ? &lt : nullptr, fine, wid);
      const auto t3 = Clock::now();
      const double cpu1 = cpu_seconds();
      const Counters d = read_counters(rig.sim()) - c0;

      const double window_s = seconds(t2, t3);
      const double rate = static_cast<double>(w.window) / window_s;
      load_ms.push_back(ms(tl, t1));
      if (traced) {
        cps_traced.push_back(rate);
        lt.wall_s += window_s;
        lt.cpu_s += cpu1 - cpu0;
        lt.cycles += w.window;
        lt.router_steps += d.at("router_steps");
      } else {
        cps.push_back(rate);
        ops.push_back(1.0 / (seconds(t0, t1) + window_s));
      }

      // The end-state check, outside the timed window.
      const auto tc = Clock::now();
      const Snapshot end = rig.save();
      const auto ts = Clock::now();
      save_ms.push_back(ms(tc, ts));
      const EndState got =
          end_state(end, rig.sim().network().packets_delivered());
      std::string problem = check_window(o, w, rep, rig, got, d);
      if (!rep.end) {
        rep.end = got;
        rep.counts = d;
        if (problem.empty()) {
          problem = check_first_window(o, w, blob, rig, got);
        }
      }
      const auto te = Clock::now();
      check_ms.push_back(ms(tc, te));
      if (log != nullptr) {
        log->add("verify::load_snapshot", tl, t1, wid);
        log->add("window", t2, t3, wid);
        log->add("check", tc, te, wid);
        log->close(wid, te, counters_json(d));
      }
      if (!problem.empty()) rep.fail(problem);
    } catch (const std::exception& e) {
      rep.fail(std::string("exception: ") + e.what());
    }
    last_op_s = seconds(op_start, Clock::now());  }
  while (setup_s.size() < kSetupRepeats) timed_set_up();

  rep.end_to_end = {
      {"cycles_per_s", median(cps.empty() ? cps_traced : cps), "cycles/s"},
      {"scenarios_per_s", median(ops), "scenarios/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"}};
  auto count = [&rep](const char* k) {
    const auto it = rep.counts.find(k);
    return it == rep.counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto cycles = static_cast<double>(lt.cycles);
  add_layer_metrics(
      rep,
      {{"traffic.us_per_cycle", 1e6 * ratio(lt.traffic_s, cycles)},
       {"sim.step_us_p50", percentile(lt.step_us, 0.50)},
       {"sim.step_us_p99", percentile(lt.step_us, 0.99)},
       {"sim.step_samples", static_cast<double>(lt.step_us.size())},
       {"noc.ns_per_router_step",
        1e9 * ratio(lt.step_s, static_cast<double>(lt.router_steps))},
       {"noc.active_router_ratio",
        ratio(count("router_steps"),
              count("router_steps") + count("router_skips"))},
       {"noc.flit_hops", count("flit_hops")},
       {"noc.flits_switched", count("flits_switched")},
       {"noc.va_stalls_no_free_vc", count("va_stalls_no_free_vc")},
       {"noc.sa_stalls_no_credit", count("sa_stalls_no_credit")},
       {"noc.sa_stalls_no_slot", count("sa_stalls_no_slot")},
       {"noc.sa_arbitration_losses", count("sa_arbitration_losses")},
       {"noc.inject_rejects", count("inject_rejects")},
       {"noc.retransmissions", count("retransmissions")},
       {"noc.nacks", count("nacks")},
       {"noc.cpu_per_wall", ratio(lt.cpu_s, lt.wall_s)},
       {"trojan.flits_inspected", count("tasp_flits_inspected")},
       {"trojan.target_sightings", count("tasp_target_sightings")},
       {"trojan.injections", count("tasp_injections")},
       {"mitigation.lob_attempts", count("lob_attempts")},
       {"mitigation.lob_successes", count("lob_successes")},
       {"mitigation.lob_success_ratio",
        ratio(count("lob_successes"), count("lob_attempts"))},
       {"mitigation.uncorrectable", count("uncorrectable")},
       {"verify.save_ms", median(save_ms)},
       {"verify.load_ms", median(load_ms)},
       {"verify.snapshot_bytes", static_cast<double>(blob.sim.size())},
       {"bench.check_ms", median(check_ms)},
       {"bench.trace_overhead_pct", overhead_pct(cps, cps_traced)}});
  return rep;
}

// -------------------------------------------------------- campaign workload

struct SnapshotTimes {
  std::vector<double> save_ms;
  std::vector<double> load_ms;
  std::size_t bytes = 0;
};

/// The campaign's warm-up fabric rebuilt from outside, as FaultCampaign
/// builds it for `spec` (the same seeds, audit settings and D1 blackscholes
/// traffic), to time save and load on the blob the campaign forks: the
/// campaign does both internally.
SnapshotTimes time_campaign_snapshot(const verify::CampaignSpec& spec) {
  SimWorkload w;
  w.config.seed = sweep::mix_seed(spec.seed, 11);
  w.config.noc.seed = sweep::mix_seed(spec.seed, 12);
  w.config.audit = spec.audit;
  w.config.audit.enabled = true;
  w.traffic_seed = sweep::mix_seed(spec.seed, 13);
  w.traffic = Traffic::kBlackscholes;
  Rig warm(w, 1);
  for (Cycle c = 0; c < spec.warmup_cycles; ++c) {
    warm.traffic_step();
    warm.step();
  }
  SnapshotTimes t;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    const Snapshot s = warm.save();
    const auto t1 = Clock::now();
    Rig fresh(w, 1);
    const auto t2 = Clock::now();
    fresh.load(s);
    const auto t3 = Clock::now();
    t.save_ms.push_back(ms(t0, t1));
    t.load_ms.push_back(ms(t2, t3));
    t.bytes = s.sim.size();
  }
  return t;
}

/// One FaultCampaign run and what the benchmark measured around it.
struct Batch {
  verify::CampaignResult result;
  double setup_s = 0.0;     ///< run() call to the first scenario claim.
  double scenario_s = 0.0;  ///< First scenario claim to return.
  EndState end;
  Counters counts;
};

Batch run_batch(const verify::CampaignSpec& base, std::uint64_t seed,
                SpanLog* log) {
  verify::CampaignSpec spec = base;
  spec.seed = seed;
  // The campaign polls should_stop before it claims each scenario, after
  // building its warm-up snapshot: the first poll ends the set-up.
  std::optional<Clock::time_point> first_poll;
  spec.should_stop = [&first_poll] {
    if (!first_poll) first_poll = Clock::now();
    return false;
  };
  std::vector<Clock::time_point> done_at;
  if (log != nullptr) {
    spec.progress = [&done_at](std::uint64_t, std::uint64_t) {
      done_at.push_back(Clock::now());
    };
  }
  Batch b;
  const auto t0 = Clock::now();
  b.result = verify::FaultCampaign(spec).run();
  const auto t1 = Clock::now();
  if (!first_poll) {
    throw std::runtime_error("campaign never started a scenario");
  }
  b.setup_s = seconds(t0, *first_poll);
  b.scenario_s = seconds(*first_poll, t1);

  Fnv1a h;
  h.str(b.result.summary_text());
  b.counts = {{"scenarios", b.result.scenarios.size()},
              {"cycles", 0},
              {"delivered", 0},
              {"audits", 0},
              {"flits_tracked", 0},
              {"failures", b.result.failures()}};
  for (const verify::ScenarioResult& s : b.result.scenarios) {
    b.counts["cycles"] += s.cycles;
    b.counts["delivered"] += s.delivered;
    b.counts["audits"] += s.audits;
    b.counts["flits_tracked"] += s.flits_tracked;
    for (const std::uint64_t v :
         {s.cycles, s.delivered, s.purged, s.audits, s.flits_tracked}) {
      h.u64(v);
    }
  }
  b.end = {h.value(), b.counts["delivered"]};

  if (log != nullptr) {
    const int cid = log->open("verify::FaultCampaign::run", t0);
    log->add("campaign.setup", t0, *first_poll, cid);
    Clock::time_point prev = *first_poll;
    for (const Clock::time_point t : done_at) {
      log->add("scenario", prev, t, cid);
      prev = t;
    }
    log->close(cid, t1, counters_json(b.counts));
  }
  return b;
}

/// Campaigns of `scenarios` each, one per 5 s of --seconds, every one with
/// its own seed drawn from --seed: a run covers several hundred distinct
/// scenarios, so how much one seed's draw happens to cost weighs less. The
/// count depends on --seconds alone, never on host speed, so two programs
/// given the same arguments run the same scenarios.
constexpr double kSecondsPerCampaign = 5.0;

Report run_campaign(const Options& o, SpanLog* log) {
  verify::CampaignSpec base;
  base.scenarios = o.scenarios > 0 ? o.scenarios : 100;
  base.threads = 1;
  base.step_threads = 1;
  base.warmup_cycles = o.warmup > 0 ? o.warmup : 1000;
  const auto campaigns = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(o.seconds / kSecondsPerCampaign + 0.5));
  Report rep;

  std::vector<double> setup_s, check_ms;
  double scenario_s = 0.0, scenarios = 0.0, cycles = 0.0;
  // A traced run traces the even-numbered campaigns only. Scenario time and
  // cycles per mode, [untraced, traced], give the tracing overhead.
  std::array<double, 2> mode_s{}, mode_cycles{};
  std::optional<Batch> first;
  for (std::uint64_t i = 0; i < campaigns; ++i) {
    rep.attempted += base.scenarios;
    const bool traced = log != nullptr && i % 2 == 0;
    try {
      Batch b = run_batch(base, derive(o.seed, 100 + i),
                          traced ? log : nullptr);
      setup_s.push_back(b.setup_s);
      scenario_s += b.scenario_s;
      scenarios += static_cast<double>(b.result.scenarios.size());
      cycles += static_cast<double>(b.counts.at("cycles"));
      mode_s[traced] += b.scenario_s;
      mode_cycles[traced] += static_cast<double>(b.counts.at("cycles"));

      const auto tc = Clock::now();
      std::string problem;
      if (b.result.scenarios.size() != base.scenarios ||
          b.result.cancelled) {
        problem = "campaign ended early";
      }
      if (i == 0 && o.expect_hash && b.end.hash != *o.expect_hash) {
        problem = "campaign hash " + hex(b.end.hash) + " != recorded " +
                  hex(*o.expect_hash);
      }
      if (i == 0 && o.expect_delivered &&
          b.end.delivered != *o.expect_delivered) {
        problem = "delivered " + std::to_string(b.end.delivered) +
                  " != recorded " + std::to_string(*o.expect_delivered);
      }
      for (const auto& [k, v] : b.counts) rep.counts[k] += v;
      const auto te = Clock::now();
      check_ms.push_back(ms(tc, te));
      if (log != nullptr) log->add("check", tc, te);
      if (!problem.empty()) {
        rep.fail(problem);
        rep.failed += base.scenarios - 1;  // the whole campaign is suspect
      } else {
        for (const verify::ScenarioResult& s : b.result.scenarios) {
          if (!s.ok) {
            rep.fail("scenario " + std::to_string(s.index) + ": " + s.error);
          }
        }
      }
      if (i == 0) {
        rep.end = b.end;
        first = std::move(b);
      }
    } catch (const std::exception& e) {
      rep.fail(std::string("exception: ") + e.what());
      rep.failed += base.scenarios - 1;
    }
  }

  rep.end_to_end = {{"cycles_per_s", cycles / scenario_s, "cycles/s"},
                    {"scenarios_per_s", scenarios / scenario_s, "scenarios/s"},
                    {"setup_s", median(setup_s), "s"},
                    {"peak_rss_mb", peak_rss_mb(), "MB"}};
  std::map<std::string, double> layer;
  if (log != nullptr && first) {
    // Rerun the first (traced) campaign untraced: it must end exactly as
    // before. Its time counts with the untraced campaigns'.
    ++rep.attempted;
    try {
      const Batch again = run_batch(base, first->result.spec.seed, nullptr);
      if (!(again.end == first->end)) {
        rep.fail("the first campaign did not repeat exactly");
      }
      mode_s[0] += again.scenario_s;
      mode_cycles[0] += static_cast<double>(again.counts.at("cycles"));
    } catch (const std::exception& e) {
      rep.fail(std::string("exception: ") + e.what());
    }
    layer["bench.trace_overhead_pct"] =
        overhead_pct({ratio(mode_cycles[0], mode_s[0])},
                     {ratio(mode_cycles[1], mode_s[1])});

    const SnapshotTimes t = time_campaign_snapshot(first->result.spec);
    layer["verify.save_ms"] = median(t.save_ms);
    layer["verify.load_ms"] = median(t.load_ms);
    layer["verify.snapshot_bytes"] = static_cast<double>(t.bytes);
  }
  const auto audits = static_cast<double>(rep.counts["audits"]);
  layer["verify.scenario_cycles"] = cycles;
  layer["verify.audits"] = audits;
  layer["verify.flits_tracked"] =
      static_cast<double>(rep.counts["flits_tracked"]);
  layer["verify.us_per_audited_cycle"] = 1e6 * ratio(scenario_s, audits);
  layer["bench.check_ms"] = median(check_ms);
  add_layer_metrics(rep, layer);
  return rep;
}

// ------------------------------------------------------------------ output

void print_metrics(const std::vector<Metric>& metrics) {
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
}

int run(int argc, char** argv) {
  Options o;
  try {
    o = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %.17g, \"trace\": %d, \"window\": %" PRIu64
      ", \"warmup\": %" PRIu64 ", \"scenarios\": %" PRIu64
      ", \"nproc\": %d, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"commit\": \"%s\", \"valid\": %s}}\n",
      json_escape(o.workload).c_str(), o.seed, o.seconds, o.trace ? 1 : 0,
      o.window, o.warmup, o.scenarios, nproc(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, json_escape(o.commit).c_str(),
      release ? "true" : "false");
  std::fflush(stdout);
  if (!release) {
    std::fprintf(stderr,
                 "perfbench: %s build is not a valid measurement; rebuild "
                 "as Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  SpanLog spans;
  SpanLog* log = o.trace ? &spans : nullptr;
  Report rep;
  try {
    rep = o.workload == "campaign_fork" ? run_campaign(o, log)
                                        : run_sim(o, log);
  } catch (const std::exception& e) {
    rep = Report{};
    rep.attempted = 1;
    rep.fail(std::string("set-up failed: ") + e.what());
  }
  for (const std::string& e : rep.errors) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
  }

  if (log != nullptr && !o.trace_out.empty()) {
    try {
      spans.write_chrome_trace(o.trace_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return 1;
    }
  }
  const EndState end = rep.end.value_or(EndState{});
  std::printf("{\"counts\": {%s}, \"end\": {\"hash\": \"%s\", "
              "\"delivered\": %" PRIu64 "}, \"spans\": %zu}\n",
              counters_json(rep.counts).c_str(), hex(end.hash).c_str(),
              end.delivered, spans.size());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              rep.failed == 0 && rep.attempted > 0 ? "true" : "false",
              rep.attempted, rep.failed);
  print_metrics(o.trace ? rep.per_layer : rep.end_to_end);
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
