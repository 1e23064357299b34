// The router's work masks are derived state: every InputUnit's busy-VC
// mask must name exactly the VCs holding a packet stream, or RC, VA, SA
// and the NI's ejection loop would skip (or chase) the wrong VCs. These
// tests recompute the mask from the VC buffers after every cycle, on every
// router input and NI ejection port, through each path that creates or
// retires streams: loaded traffic, a TASP answered by forced-scramble L-Ob
// (the scramble station), purge storms, a link disable followed by the
// up*/down* reconfiguration (which sends waiting streams back through RC),
// and a snapshot restored mid-run — serially and with a sharded step.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "traffic/app_profile.hpp"
#include "traffic/generator.hpp"
#include "verify/snapshot.hpp"

namespace htnoc {
namespace {

struct MaskCase {
  const char* fabric;
  TopologyKind kind;
  int width;
  int height;
  int concentration;
  int step_threads;
};

constexpr MaskCase kCases[] = {
    {"cmesh4x4", TopologyKind::kConcentratedMesh, 4, 4, 4, 1},
    {"cmesh4x4", TopologyKind::kConcentratedMesh, 4, 4, 4, 4},
    {"mesh8x8", TopologyKind::kMesh, 8, 8, 1, 1},
    {"mesh8x8", TopologyKind::kMesh, 8, 8, 1, 4},
    {"cmesh8x4c2", TopologyKind::kConcentratedMesh, 8, 4, 2, 1},
    {"cmesh8x4c2", TopologyKind::kConcentratedMesh, 8, 4, 2, 4},
};

/// Printed as "<fabric>_t<threads>", so the ctest names are stable.
void PrintTo(const MaskCase& c, std::ostream* os) {
  *os << c.fabric << "_t" << c.step_threads;
}

/// The busy mask recomputed from the VC buffers.
std::uint32_t expected_mask(const InputUnit& in) {
  std::uint32_t m = 0;
  for (int v = 0; v < in.num_vcs(); ++v) {
    if (!in.vcbuf(v).streams.empty()) m |= 1u << v;
  }
  return m;
}

/// Empty when every input unit's mask matches its buffers, else the first
/// mismatch.
std::string mask_mismatch(Network& net) {
  const auto check = [](const InputUnit& in, const std::string& where) {
    const std::uint32_t want = expected_mask(in);
    if (in.busy_vcs() == want) return std::string();
    return where + ": mask " + std::to_string(in.busy_vcs()) +
           ", streams say " + std::to_string(want);
  };
  for (RouterId r = 0; r < net.geometry().num_routers(); ++r) {
    Router& rt = net.router(r);
    for (int p = 0; p < rt.num_ports(); ++p) {
      std::string err = check(rt.input(p), "router " + std::to_string(r) +
                                               " port " + std::to_string(p));
      if (!err.empty()) return err;
    }
  }
  for (NodeId c = 0; c < net.geometry().num_cores(); ++c) {
    std::string err =
        check(net.ni(c).ejection_port(), "NI " + std::to_string(c));
    if (!err.empty()) return err;
  }
  return {};
}

/// A simulator plus the application traffic that loads it.
struct Rig {
  sim::Simulator sim;
  traffic::DeliveryDispatcher disp;
  traffic::AppTrafficModel model;
  traffic::TrafficGenerator gen;

  explicit Rig(const sim::SimConfig& cfg)
      : sim(cfg),
        model(sim.network().geometry(), traffic::profile_by_name("facesim")),
        gen(sim.network(), model,
            [] {
              traffic::TrafficGenerator::Params gp;
              gp.seed = 0x5EED;
              return gp;
            }(),
            disp) {
    disp.install(sim.network());
    sim.set_drop_callback([this](PacketId id) { gen.requeue(id); });
  }

  Network& net() { return sim.network(); }

  /// Step `n` cycles, checking every mask after each one.
  void run_checked(Cycle n) {
    for (Cycle c = 0; c < n; ++c) {
      gen.step();
      sim.step();
      const std::string err = mask_mismatch(net());
      ASSERT_TRUE(err.empty()) << "cycle " << net().now() << ": " << err;
    }
  }

  /// Purge one random live packet (as the fault campaign's purge storms do)
  /// and hand every purged packet back to the generator.
  void purge_random(Rng& rng) {
    const PacketId hi = net().peek_next_packet_id();
    if (hi <= 1) return;
    const PacketId victim = 1 + rng.next_below(hi - 1);
    for (const PacketId dropped : net().purge_packet(victim)) {
      gen.requeue(dropped);
    }
  }
};

sim::SimConfig base_config(const MaskCase& c) {
  sim::SimConfig sc;
  sc.noc.topology = c.kind;
  sc.noc.mesh_width = c.width;
  sc.noc.mesh_height = c.height;
  sc.noc.concentration = c.concentration;
  sc.noc.step_threads = c.step_threads;
  sc.noc.seed = 0xBEEF;
  sc.seed = 0xF00D;
  return sc;
}

/// A TASP on router 5's eastbound link (present on every fabric here),
/// tuned to the router it feeds, kill switch on from the start.
sim::AttackSpec east_of_5_attack() {
  sim::AttackSpec atk;
  atk.link = {5, Direction::kEast};
  atk.tasp.kind = trojan::TargetKind::kDest;
  atk.tasp.target_dest = 6;
  return atk;
}

std::uint64_t scramble_stalls(Network& net) {
  std::uint64_t n = 0;
  for (RouterId r = 0; r < net.geometry().num_routers(); ++r) {
    Router& rt = net.router(r);
    for (int p = 0; p < rt.num_ports(); ++p) {
      n += rt.input(p).stats().scramble_stalls;
    }
  }
  return n;
}

class WorkMasks : public ::testing::TestWithParam<MaskCase> {};

TEST_P(WorkMasks, LoadedTraffic) {
  Rig rig(base_config(GetParam()));
  rig.run_checked(800);
  EXPECT_GT(rig.net().packets_delivered(), 0u);
}

TEST_P(WorkMasks, TaspWithForcedScrambleLOb) {
  sim::SimConfig sc = base_config(GetParam());
  sc.mode = sim::MitigationMode::kLOb;
  sc.lob = mitigation::forced_lob_params(ObfMethod::kScramble,
                                         ObfGranularity::kFlit);
  sc.attacks.push_back(east_of_5_attack());
  Rig rig(sc);
  rig.run_checked(800);
  EXPECT_GT(rig.sim.tasp(0).stats().injections, 0u);
  EXPECT_GT(scramble_stalls(rig.net()), 0u)
      << "no scrambled phit ever waited in a station";
}

TEST_P(WorkMasks, PurgeStorm) {
  Rig rig(base_config(GetParam()));
  Rng rng(0x57041);
  for (int burst = 0; burst < 40; ++burst) {
    for (int i = 0; i < 5; ++i) rig.purge_random(rng);
    ASSERT_TRUE(mask_mismatch(rig.net()).empty())
        << "after purge burst " << burst << ": " << mask_mismatch(rig.net());
    rig.run_checked(20);
  }
  EXPECT_GT(rig.net().purge_totals().packets, 0u);
}

TEST_P(WorkMasks, LinkDisableThenUpDownReconfiguration) {
  // The Ariadne-style reroute policy: once the detector classifies the
  // trojan's link it is disabled, stranded packets are purged, waiting
  // streams go back through RC and routing switches to up*/down*.
  sim::SimConfig sc = base_config(GetParam());
  sc.mode = sim::MitigationMode::kReroute;
  sc.reroute_latency = 50;
  sc.attacks.push_back(east_of_5_attack());
  Rig rig(sc);
  rig.run_checked(900);
  EXPECT_GT(rig.sim.stats().routing_reconfigurations, 0);
}

TEST_P(WorkMasks, SnapshotRestoredMidRun) {
  sim::SimConfig sc = base_config(GetParam());
  sc.mode = sim::MitigationMode::kLOb;
  sc.lob = mitigation::forced_lob_params(ObfMethod::kScramble,
                                         ObfGranularity::kFlit);
  sc.attacks.push_back(east_of_5_attack());
  Rig a(sc);
  a.run_checked(400);
  const std::vector<std::uint8_t> blob = verify::save_snapshot(a.sim, {&a.gen});

  Rig b(sc);
  verify::load_snapshot(b.sim, {&b.gen}, blob);
  ASSERT_TRUE(mask_mismatch(b.net()).empty())
      << "right after load: " << mask_mismatch(b.net());
  for (Cycle c = 0; c < 300; ++c) {
    a.run_checked(1);
    b.run_checked(1);
    ASSERT_EQ(verify::state_digest(a.sim, {&a.gen}),
              verify::state_digest(b.sim, {&b.gen}))
        << "diverged " << (c + 1) << " cycles after the restore";
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, WorkMasks, ::testing::ValuesIn(kCases));

}  // namespace
}  // namespace htnoc
