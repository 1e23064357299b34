#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "traffic/generator.hpp"

namespace htnoc::sim {
namespace {

AttackSpec dest_attack(LinkRef link, RouterId dest, Cycle enable_at) {
  AttackSpec a;
  a.link = link;
  a.tasp.kind = trojan::TargetKind::kDest;
  a.tasp.target_dest = dest;
  a.enable_killsw_at = enable_at;
  return a;
}

TEST(Simulator, ConstructsAllModes) {
  for (const MitigationMode mode :
       {MitigationMode::kNone, MitigationMode::kLOb, MitigationMode::kReroute}) {
    SimConfig sc;
    sc.mode = mode;
    sc.attacks.push_back(dest_attack({4, Direction::kNorth}, 0, 100));
    Simulator sim(std::move(sc));
    EXPECT_EQ(sim.num_trojans(), 1u);
    EXPECT_FALSE(sim.tasp(0).kill_switch());
    sim.run(10);
  }
}

TEST(Simulator, ModeNames) {
  EXPECT_EQ(to_string(MitigationMode::kNone), "none");
  EXPECT_EQ(to_string(MitigationMode::kLOb), "lob");
  EXPECT_EQ(to_string(MitigationMode::kReroute), "reroute");
}

TEST(Simulator, KillSwitchScheduleFires) {
  SimConfig sc;
  sc.attacks.push_back(dest_attack({4, Direction::kNorth}, 0, 5));
  Simulator sim(std::move(sc));
  sim.run(5);
  EXPECT_FALSE(sim.tasp(0).kill_switch());
  sim.step();
  EXPECT_TRUE(sim.tasp(0).kill_switch());
}

TEST(Simulator, TransientFaultsInjectedWhenConfigured) {
  SimConfig sc;
  sc.transient_phit_fault_prob = 0.05;
  Simulator sim(std::move(sc));
  Network& net = sim.network();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppTrafficModel model(net.geometry(),
                                 traffic::blackscholes_profile());
  traffic::TrafficGenerator::Params gp;
  gp.seed = 1;
  gp.total_requests = 300;
  traffic::TrafficGenerator gen(net, model, gp, disp);
  Cycle c = 0;
  while (!gen.done() && c < 200000) {
    gen.step();
    sim.step();
    ++c;
  }
  // Despite faults everywhere, ECC + retransmission deliver everything.
  EXPECT_TRUE(gen.done());
  std::uint64_t faults = 0;
  for (const LinkRef& l : net.all_links()) {
    faults += net.link(l.from, l.dir).stats().phits_with_injected_faults;
  }
  EXPECT_GT(faults, 0u);
}

TEST(Simulator, PermanentFaultForcesRetransmissionsUntilRerouted) {
  SimConfig sc;
  sc.mode = MitigationMode::kReroute;
  // Stuck wires produce uncorrectable double errors on a busy link.
  sc.permanent_faults.push_back(
      {{0, Direction::kEast}, {{3, true}, {30, true}}});
  Simulator sim(std::move(sc));
  Network& net = sim.network();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppTrafficModel model(net.geometry(),
                                 traffic::blackscholes_profile());
  traffic::TrafficGenerator::Params gp;
  gp.seed = 2;
  gp.total_requests = 200;
  traffic::TrafficGenerator gen(net, model, gp, disp);
  sim.set_drop_callback([&](PacketId id) { gen.requeue(id); });
  Cycle c = 0;
  while (!gen.done() && c < 400000) {
    gen.step();
    sim.step();
    ++c;
  }
  EXPECT_TRUE(gen.done());
  // The faulty link was detected (as permanent) and taken out of service.
  EXPECT_GE(sim.stats().links_disabled, 2);  // both directions
  EXPECT_EQ(sim.detector(1).classification(direction_port(Direction::kWest)),
            mitigation::LinkThreatClass::kPermanent);
}

TEST(Simulator, RerouteModeDisablesAttackedLinkAndCompletes) {
  SimConfig sc;
  sc.mode = MitigationMode::kReroute;
  sc.attacks.push_back(dest_attack({4, Direction::kNorth}, 0, 500));
  Simulator sim(std::move(sc));
  Network& net = sim.network();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppTrafficModel model(net.geometry(),
                                 traffic::blackscholes_profile());
  traffic::TrafficGenerator::Params gp;
  gp.seed = 3;
  gp.total_requests = 500;
  traffic::TrafficGenerator gen(net, model, gp, disp);
  sim.set_drop_callback([&](PacketId id) { gen.requeue(id); });
  Cycle c = 0;
  while (!gen.done() && c < 400000) {
    gen.step();
    sim.step();
    ++c;
  }
  EXPECT_TRUE(gen.done());
  EXPECT_GE(sim.stats().links_disabled, 2);
  EXPECT_GE(sim.stats().routing_reconfigurations, 1);
  EXPECT_TRUE(net.disabled_links().contains(LinkRef{4, Direction::kNorth}));
  // The trojan can no longer see traffic.
  const auto inspected_at_disable = sim.tasp(0).stats().flits_inspected;
  sim.run(100);
  EXPECT_EQ(sim.tasp(0).stats().flits_inspected, inspected_at_disable);
}

TEST(Simulator, LObModeInstallsControllersOnMeshPorts) {
  SimConfig sc;
  sc.mode = MitigationMode::kLOb;
  Simulator sim(std::move(sc));
  EXPECT_TRUE(sim.has_lob());
  // Corner router 0 has E and S mesh ports only.
  EXPECT_NO_THROW((void)sim.lob(0, direction_port(Direction::kEast)));
  EXPECT_NO_THROW((void)sim.lob(5, direction_port(Direction::kNorth)));
}

}  // namespace
}  // namespace htnoc::sim
