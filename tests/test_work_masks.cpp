// The step's work masks and counters are derived state, and the step
// trusts them to skip work:
//   - every InputUnit's busy-VC mask must name exactly the VCs holding a
//     packet stream, or RC, VA, SA and the NI's ejection loop would skip
//     (or chase) the wrong VCs;
//   - every router's slot-output mask must name exactly the outputs holding
//     a retransmission slot, or LT would skip (or plan) the wrong outputs;
//   - every in-flight word must equal its link's queue length (phits on an
//     input link, credits plus ACK/NACKs on an output link), or the active
//     set and the drain would skip a unit with messages due;
//   - every input's occupancy counter must equal the flits in its VC
//     buffers plus its scramble station.
// These tests recompute all of them from the buffers and links after every
// cycle, on every router port and NI, through each path that creates or
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

/// Flits buffered at an input, counted off its VC stream lists and its
/// scramble station.
std::size_t buffered_flits(const InputUnit& in) {
  std::vector<ResidentFlit> flits;
  in.collect_resident(flits, 0, 0);
  return flits.size();
}

/// Empty when `got` equals `want`, else "<where>: <what> <got>, <want_from>
/// says <want>".
std::string differ(const std::string& where, const char* what,
                   std::uint64_t got, const char* want_from,
                   std::uint64_t want) {
  if (got == want) return {};
  return where + ": " + what + " " + std::to_string(got) + ", " + want_from +
         " says " + std::to_string(want);
}

/// An input unit's busy mask and occupancy counter against its buffers.
std::string input_mismatch(const InputUnit& in, const std::string& where) {
  std::string err = differ(where, "busy mask", in.busy_vcs(), "streams",
                           expected_mask(in));
  if (err.empty()) {
    err = differ(where, "occupancy", static_cast<std::uint64_t>(in.occupancy()),
                 "buffers", buffered_flits(in));
  }
  return err;
}

/// An in-flight word against the queue length of the link it counts; a
/// port without a link must read zero.
std::string word_mismatch(std::uint32_t word, const Link* link,
                          bool control, const std::string& where) {
  std::uint64_t want = 0;
  if (link != nullptr) {
    want = control ? link->control_queued() : link->phits_queued();
  }
  return differ(where, control ? "control word" : "phit word", word,
                "link queue", want);
}

/// Empty when every mask, in-flight word and occupancy counter matches the
/// buffers and links it is derived from, else the first mismatch.
std::string derived_mismatch(Network& net) {
  for (RouterId r = 0; r < net.geometry().num_routers(); ++r) {
    const Router& rt = net.router(r);
    std::uint32_t slot_outputs = 0;
    for (int p = 0; p < rt.num_ports(); ++p) {
      const std::string where =
          "router " + std::to_string(r) + " port " + std::to_string(p);
      std::string err = input_mismatch(rt.input(p), where);
      if (err.empty()) {
        err = word_mismatch(rt.counts(p).phits, rt.input(p).link(), false,
                            where);
      }
      if (err.empty()) {
        err = word_mismatch(rt.counts(p).control, rt.output(p).link(), true,
                            where);
      }
      if (!err.empty()) return err;
      if (rt.output(p).occupancy() != 0) slot_outputs |= 1u << p;
    }
    const std::string err =
        differ("router " + std::to_string(r), "slot-output mask",
               rt.slot_outputs(), "outputs", slot_outputs);
    if (!err.empty()) return err;
  }
  for (NodeId c = 0; c < net.geometry().num_cores(); ++c) {
    const NetworkInterface& ni = net.ni(c);
    const std::string where = "NI " + std::to_string(c);
    std::string err = input_mismatch(ni.ejection_port(), where);
    if (err.empty()) {
      err = word_mismatch(ni.counts().phits, ni.ejection_port().link(), false,
                          where);
    }
    if (err.empty()) {
      err = word_mismatch(ni.counts().control, ni.injection_port().link(),
                          true, where);
    }
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
      const std::string err = derived_mismatch(net());
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
    ASSERT_TRUE(derived_mismatch(rig.net()).empty())
        << "after purge burst " << burst << ": " << derived_mismatch(rig.net());
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
  ASSERT_TRUE(derived_mismatch(b.net()).empty())
      << "right after load: " << derived_mismatch(b.net());
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
