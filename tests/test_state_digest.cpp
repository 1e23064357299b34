// verify::state_digest folds every field a snapshot holds. These pairs of
// simulators agree on where every flit is, on utilization and on the
// delivery/purge/packet-id counters, yet differ in state the paper's attack
// and its mitigation work through: arbiter pointers, credits, RNG streams,
// the TASP kill switch and L-Ob's success log. The digest must tell each
// pair apart, and must agree on two simulators with the same history.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "mitigation/lob.hpp"
#include "noc/fault_model.hpp"
#include "sim/simulator.hpp"
#include "traffic/app_profile.hpp"
#include "traffic/generator.hpp"
#include "verify/snapshot.hpp"

namespace htnoc {
namespace {

using verify::state_digest;

/// Inject one packet by hand, bypassing the traffic generator.
void inject(Network& net, NodeId src, NodeId dest, int length) {
  PacketInfo info;
  info.id = net.next_packet_id();
  info.src_core = src;
  info.dest_core = dest;
  info.src_router = net.geometry().router_of_core(src);
  info.dest_router = net.geometry().router_of_core(dest);
  info.length = length;
  info.inject_cycle = net.now();
  const std::vector<std::uint64_t> payload(static_cast<std::size_t>(length),
                                           0xDA7Aull);
  ASSERT_TRUE(net.try_inject(info, payload));
}

sim::SimConfig attacked_config() {
  sim::SimConfig cfg;
  cfg.mode = sim::MitigationMode::kLOb;
  sim::AttackSpec atk;
  atk.link = {5, Direction::kEast};
  atk.tasp.kind = trojan::TargetKind::kDest;
  atk.tasp.target_dest = 0;
  atk.enable_killsw_at = 1'000'000;  // never, unless a test flips it
  cfg.attacks.push_back(atk);
  return cfg;
}

TEST(StateDigest, SameHistorySameDigest) {
  sim::SimConfig cfg = attacked_config();
  cfg.attacks[0].enable_killsw_at = 100;
  cfg.audit.enabled = true;
  cfg.trace.enabled = true;
  struct Rig {
    sim::Simulator sim;
    traffic::DeliveryDispatcher disp;
    traffic::AppTrafficModel model;
    traffic::TrafficGenerator gen;
    explicit Rig(const sim::SimConfig& c)
        : sim(c),
          model(sim.network().geometry(), traffic::profile_by_name("facesim")),
          gen(sim.network(), model, {}, disp) {
      disp.install(sim.network());
    }
  };
  Rig a(cfg);
  Rig b(cfg);
  for (Cycle c = 0; c < 300; ++c) {
    a.gen.step();
    a.sim.step();
    b.gen.step();
    b.sim.step();
    ASSERT_EQ(state_digest(a.sim, {&a.gen}), state_digest(b.sim, {&b.gen}))
        << "cycle " << c;
  }
  EXPECT_GT(a.sim.network().packets_delivered(), 0u);
  EXPECT_GT(a.sim.tasp(0).stats().flits_inspected, 0u);

  // Saving walks the state without changing it.
  const std::uint64_t before = state_digest(a.sim, {&a.gen});
  (void)verify::save_snapshot(a.sim, {&a.gen});
  EXPECT_EQ(state_digest(a.sim, {&a.gen}), before);
  // The generators are part of the digest.
  EXPECT_NE(state_digest(a.sim), before);
}

TEST(StateDigest, SeesArbiterPointersAndCountersOfADeliveredPacket) {
  // A 3-flit packet to core 63, from core 0 on one side and from core 1 on
  // the other. Both cores sit on router 0, so once the packet is delivered
  // the fabric is empty on both sides, but the router's arbiters granted a
  // different injection port and different NIs and links counted it.
  sim::Simulator a{sim::SimConfig{}};
  sim::Simulator b{sim::SimConfig{}};
  ASSERT_EQ(a.network().geometry().router_of_core(0),
            a.network().geometry().router_of_core(1));
  inject(a.network(), 0, 63, 3);
  inject(b.network(), 1, 63, 3);
  a.run(300);
  b.run(300);
  ASSERT_EQ(a.network().packets_delivered(), 1u);
  ASSERT_EQ(b.network().packets_delivered(), 1u);
  EXPECT_NE(state_digest(a), state_digest(b));
}

TEST(StateDigest, SeesCredits) {
  // One credit on a link's reverse channel, not yet returned to the
  // upstream output.
  sim::Simulator a{sim::SimConfig{}};
  sim::Simulator b{sim::SimConfig{}};
  b.network().link(5, Direction::kEast).send_credit(b.network().now(), {0});
  EXPECT_NE(state_digest(a), state_digest(b));

  // Every output's credit counter: idle fabrics with 4- and 2-flit buffers.
  sim::SimConfig shallow;
  shallow.noc.buffer_depth = 2;
  sim::Simulator c{sim::SimConfig{}};
  sim::Simulator d{shallow};
  ASSERT_NE(c.config().noc.buffer_depth, d.config().noc.buffer_depth);
  c.run(10);
  d.run(10);
  EXPECT_NE(state_digest(c), state_digest(d));
}

TEST(StateDigest, SeesOneRngDraw) {
  // The same transient-fault stream on both sides, advanced by one draw on
  // one of them. The fault probability is positive (so the phit draws) but
  // far too small to ever strike.
  sim::Simulator a{sim::SimConfig{}};
  sim::Simulator b{sim::SimConfig{}};
  TransientFaultInjector::Params p;
  p.phit_fault_prob = 1e-300;
  auto fa = std::make_shared<TransientFaultInjector>(p, 0x5EED);
  auto fb = std::make_shared<TransientFaultInjector>(p, 0x5EED);
  a.network().link(5, Direction::kEast).attach_injector(fa);
  b.network().link(5, Direction::kEast).attach_injector(fb);
  EXPECT_EQ(state_digest(a), state_digest(b));
  LinkPhit scratch;
  fb->on_traverse(0, scratch);
  ASSERT_EQ(fb->faults_injected(), 0u);
  EXPECT_NE(state_digest(a), state_digest(b));
}

TEST(StateDigest, SeesTheTaspKillSwitch) {
  sim::Simulator a{attacked_config()};
  sim::Simulator b{attacked_config()};
  b.tasp(0).set_kill_switch(true);
  a.run(50);
  b.run(50);
  ASSERT_TRUE(b.tasp(0).kill_switch());
  ASSERT_FALSE(a.tasp(0).kill_switch());
  EXPECT_NE(state_digest(a), state_digest(b));
}

TEST(StateDigest, SeesAnLObSuccessLogEntry) {
  // Each side escalates one flit on the same output and logs invert as the
  // method that got it through, for flows to different destinations: the
  // L-Ob counters agree, only the success log's key differs.
  sim::Simulator a{attacked_config()};
  sim::Simulator b{attacked_config()};
  auto escalate_and_ack = [](sim::Simulator& s, RouterId dest) {
    Flit f;
    f.packet = 7;
    f.src_router = 5;
    f.dest_router = dest;
    mitigation::LObController& lob = s.lob(5, 2);
    const ObfuscationTag tag = lob.plan(0, f, 1, /*escalate=*/true, false);
    ASSERT_EQ(tag.method, ObfMethod::kInvert);
    lob.on_ack(0, f, tag);
    EXPECT_EQ(lob.logged_method(5, dest), 0);
  };
  escalate_and_ack(a, 6);
  escalate_and_ack(b, 9);
  EXPECT_NE(state_digest(a), state_digest(b));
}

}  // namespace
}  // namespace htnoc
