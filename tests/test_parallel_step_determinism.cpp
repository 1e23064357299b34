// The parallel-step contract (Network::step, docs/SCALING.md): for any
// step_threads value, a run's state evolution, captured traces, and
// campaign summaries are byte-identical to the serial schedule. These tests
// take verify::state_digest every cycle — every field a snapshot holds, not
// just end-of-run counters — so a single divergent flit, credit, arbiter
// pointer or RNG word anywhere in the simulator fails the run at the cycle
// it appears. The contract is fabric-agnostic,
// so the state-evolution tests run on the paper's 4x4 concentrated mesh,
// a plain 8x8 mesh and a non-square 8x4 mesh with two cores per router,
// plus a 64x64 mesh for the sharded large-fabric regime.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "sweep/runner.hpp"
#include "trace/export.hpp"
#include "traffic/app_profile.hpp"
#include "traffic/generator.hpp"
#include "verify/campaign.hpp"
#include "verify/snapshot.hpp"

namespace {

using namespace htnoc;

struct Fabric {
  const char* label;
  TopologyKind kind;
  int width = 4;
  int height = 4;
  int concentration = 1;
};

constexpr Fabric kFabrics[] = {
    {"cmesh4x4", TopologyKind::kConcentratedMesh, 4, 4, 4},
    {"mesh8x8", TopologyKind::kMesh, 8, 8, 1},
    {"cmesh8x4c2", TopologyKind::kConcentratedMesh, 8, 4, 2},
};

/// Printed as its label: gtest's fallback printer would dump the struct's
/// bytes, label pointer included, into the ctest name, which ASLR moves on
/// every build. A default-numbered instance then gets the stable ctest name
/// "Fabrics/ParallelStepFabrics.IdleStateEvolutionIsThreadInvariant/cmesh4x4".
void PrintTo(const Fabric& f, std::ostream* os) { *os << f.label; }

void apply(const Fabric& f, NocConfig& noc) {
  noc.topology = f.kind;
  noc.mesh_width = f.width;
  noc.mesh_height = f.height;
  noc.concentration = f.concentration;
}

struct RunDigest {
  /// verify::state_digest (simulator + generator) after every cycle.
  std::vector<std::uint64_t> per_cycle;
  Network::StepStats steps;
  std::uint64_t delivered = 0;
};

/// Drive an attacked (or idle) fabric for `cycles` under a fixed seed and
/// record the state digest after every single step() call.
RunDigest run_fabric(const Fabric& f, int step_threads, bool attacked,
                     Cycle cycles) {
  sim::SimConfig sc;
  apply(f, sc.noc);
  sc.noc.step_threads = step_threads;
  sc.noc.seed = 0xBEEF;
  sc.seed = 0xF00D;
  sc.mode = sim::MitigationMode::kLOb;
  if (attacked) {
    sim::AttackSpec atk;
    atk.link = {5, Direction::kEast};  // router 5 has an East link everywhere
    atk.tasp.kind = trojan::TargetKind::kDest;
    atk.tasp.target_dest = 0;
    atk.enable_killsw_at = 150;
    sc.attacks.push_back(atk);
  }
  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();

  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppProfile profile = traffic::profile_by_name("facesim");
  traffic::AppTrafficModel model(net.geometry(), profile);
  traffic::TrafficGenerator::Params gp;
  gp.seed = 0x5EED;
  traffic::TrafficGenerator gen(net, model, gp, disp);

  RunDigest out;
  out.per_cycle.reserve(cycles);
  for (Cycle c = 0; c < cycles; ++c) {
    if (attacked) gen.step();
    simulator.step();
    out.per_cycle.push_back(verify::state_digest(simulator, {&gen}));
  }
  out.steps = net.step_stats();
  out.delivered = net.packets_delivered();
  return out;
}

void expect_same_evolution(const RunDigest& a, const RunDigest& b,
                           const char* label) {
  ASSERT_EQ(a.per_cycle.size(), b.per_cycle.size()) << label;
  for (std::size_t c = 0; c < a.per_cycle.size(); ++c) {
    ASSERT_EQ(a.per_cycle[c], b.per_cycle[c])
        << label << ": first divergence at cycle " << c;
  }
  EXPECT_EQ(a.delivered, b.delivered) << label;
  EXPECT_EQ(a.steps.router_steps, b.steps.router_steps) << label;
  EXPECT_EQ(a.steps.router_skips, b.steps.router_skips) << label;
  EXPECT_EQ(a.steps.ni_steps, b.steps.ni_steps) << label;
  EXPECT_EQ(a.steps.ni_skips, b.steps.ni_skips) << label;
}

class ParallelStepFabrics : public ::testing::TestWithParam<Fabric> {};

TEST_P(ParallelStepFabrics, AttackedStateEvolutionIsThreadInvariant) {
  const Fabric& f = GetParam();
  const RunDigest serial = run_fabric(f, 1, /*attacked=*/true, 600);
  const RunDigest two = run_fabric(f, 2, /*attacked=*/true, 600);
  const RunDigest eight = run_fabric(f, 8, /*attacked=*/true, 600);
  EXPECT_GT(serial.delivered, 0u);  // the fixture must actually move traffic
  expect_same_evolution(serial, two, "1 vs 2 threads");
  expect_same_evolution(serial, eight, "1 vs 8 threads");
}

TEST_P(ParallelStepFabrics, IdleStateEvolutionIsThreadInvariant) {
  // No traffic at all: the active-set fast path must agree with the serial
  // schedule on which units it skips, every cycle.
  const Fabric& f = GetParam();
  const RunDigest serial = run_fabric(f, 1, /*attacked=*/false, 300);
  const RunDigest eight = run_fabric(f, 8, /*attacked=*/false, 300);
  expect_same_evolution(serial, eight, "idle, 1 vs 8 threads");
}

INSTANTIATE_TEST_SUITE_P(Fabrics, ParallelStepFabrics,
                         ::testing::ValuesIn(kFabrics));

TEST(ParallelStepDeterminism, MoreThreadsThanRoutersClampsSafely) {
  const Fabric& f = kFabrics[0];  // 16 routers, 64 requested threads
  const RunDigest serial = run_fabric(f, 1, /*attacked=*/true, 200);
  const RunDigest wide = run_fabric(f, 64, /*attacked=*/true, 200);
  expect_same_evolution(serial, wide, "1 vs 64 threads (16 routers)");
}

/// The large-fabric regime the topology layer exists for: a 64x64 mesh
/// (4096 routers) stepped under worker sharding, with the invariant auditor
/// armed, must evolve bit-identically to the serial schedule and audit
/// clean. Traffic is injected by hand: AppTrafficModel's sampling tables
/// are quadratic in cores (134 MB here), overkill for a stepping test.
TEST(ParallelStepDeterminism, Mesh64x64ShardedStepMatchesSerialAndAuditsClean) {
  auto run = [](int step_threads) {
    sim::SimConfig sc;
    sc.noc.topology = TopologyKind::kMesh;
    sc.noc.mesh_width = 64;
    sc.noc.mesh_height = 64;
    sc.noc.concentration = 1;
    sc.noc.step_threads = step_threads;
    sc.noc.seed = 0xBEEF;
    sc.seed = 0xF00D;
    sc.audit.enabled = true;
    sc.audit.period = 64;
    sim::Simulator simulator(std::move(sc));
    Network& net = simulator.network();
    const int cores = net.geometry().num_cores();

    Rng rng(0x5EED);
    RunDigest out;
    for (Cycle c = 0; c < 240; ++c) {
      if (c < 80) {
        for (int k = 0; k < 32; ++k) {
          PacketInfo info;
          info.id = net.next_packet_id();
          info.src_core = static_cast<NodeId>(
              rng.next_below(static_cast<std::uint64_t>(cores)));
          info.dest_core = static_cast<NodeId>(
              rng.next_below(static_cast<std::uint64_t>(cores)));
          info.src_router = net.geometry().router_of_core(info.src_core);
          info.dest_router = net.geometry().router_of_core(info.dest_core);
          info.length = static_cast<int>(rng.next_in(1, 4));
          info.inject_cycle = net.now();
          const std::vector<std::uint64_t> payload(
              static_cast<std::size_t>(info.length), 0xDA7Aull);
          (void)net.try_inject(info, payload);
        }
      }
      simulator.step();
      out.per_cycle.push_back(verify::state_digest(simulator));
    }
    out.steps = net.step_stats();
    out.delivered = net.packets_delivered();
    EXPECT_TRUE(simulator.auditor()->clean())
        << simulator.auditor()->report();
    return out;
  };
  const RunDigest serial = run(1);
  const RunDigest sharded = run(8);
  EXPECT_GT(serial.delivered, 0u);
  expect_same_evolution(serial, sharded, "64x64 mesh, 1 vs 8 threads");
}

sweep::SweepSpec traced_spec(int step_threads) {
  sim::AttackSpec atk;
  atk.link = {4, Direction::kNorth};
  atk.tasp.kind = trojan::TargetKind::kDest;
  atk.tasp.target_dest = 0;
  atk.enable_killsw_at = 150;

  sweep::SweepSpec spec;
  spec.modes = {sim::MitigationMode::kNone, sim::MitigationMode::kLOb};
  spec.attack_scenarios = {{"none", {}}, {"single", {atk}}};
  spec.replicates = 2;
  spec.run_cycles = 400;
  spec.probe_period = 100;
  spec.base_seed = 0xD15EA5E;
  spec.base.noc.step_threads = step_threads;
  spec.base.trace.enabled = true;
  spec.base.trace.capacity = std::size_t{1} << 12;  // force ring wraparound
  return spec;
}

TEST(ParallelStepDeterminism, TraceStreamsAreByteIdentical) {
  // Both parallelism layers at once: sweep workers x step threads.
  const sweep::SweepResult serial = sweep::SweepRunner({2}).run(traced_spec(1));
  const sweep::SweepResult par = sweep::SweepRunner({2}).run(traced_spec(8));
  ASSERT_EQ(serial.failures(), 0u);
  ASSERT_EQ(par.failures(), 0u);
  ASSERT_EQ(serial.runs.size(), par.runs.size());
  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    ASSERT_TRUE(serial.runs[i].trace && par.runs[i].trace) << "run " << i;
    EXPECT_EQ(trace::serialize_binary(*serial.runs[i].trace),
              trace::serialize_binary(*par.runs[i].trace))
        << "run " << i;
    EXPECT_EQ(serial.runs[i].metrics(), par.runs[i].metrics()) << "run " << i;
  }
}

TEST(ParallelStepDeterminism, CampaignSummariesAreByteIdentical) {
  // Campaign-strength equivalence: randomized adversarial scenarios (trojan
  // implants, kill-switch toggles, purge storms, fault injection) with the
  // invariant auditor armed, serial vs 8-way-stepped.
  verify::CampaignSpec spec;
  spec.seed = 0xA5A5;
  spec.scenarios = 24;
  spec.threads = 2;
  const std::string report = verify::FaultCampaign::equivalence_report(spec, 8);
  EXPECT_EQ(report, "") << report;
}

}  // namespace
