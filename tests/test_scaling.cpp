// The simulator generalizes beyond the paper's 4x4 platform: larger meshes,
// different concentrations, and the attack/mitigation machinery on an 8x8.
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "traffic/generator.hpp"

namespace htnoc {
namespace {

NocConfig mesh8x8() {
  NocConfig cfg;
  cfg.mesh_width = 8;
  cfg.mesh_height = 8;
  cfg.concentration = 1;
  return cfg;
}

TEST(Scaling, EightByEightTopology) {
  Network net(mesh8x8());
  // 2*(7*8 + 8*7) = 224 unidirectional links.
  EXPECT_EQ(net.all_links().size(), 224u);
  EXPECT_EQ(net.geometry().num_cores(), 64);
}

TEST(Scaling, EightByEightDeliversUniformTraffic) {
  Network net(mesh8x8());
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  auto profile = traffic::blackscholes_profile();
  // Router ids in hotspots must exist; they do (0,1,4 < 64).
  traffic::AppTrafficModel model(net.geometry(), profile);
  traffic::TrafficGenerator::Params gp;
  gp.seed = 41;
  gp.total_requests = 300;
  traffic::TrafficGenerator gen(net, model, gp, disp);
  Cycle c = 0;
  while (!gen.done() && c < 300000) {
    gen.step();
    net.step();
    ++c;
    if (c % 100 == 0) {
      ASSERT_EQ(net.check_invariants(), "");
    }
  }
  EXPECT_TRUE(gen.done());
}

TEST(Scaling, AttackAndLObWorkOnEightByEight) {
  sim::SimConfig sc;
  sc.noc = mesh8x8();
  sc.mode = sim::MitigationMode::kLOb;
  sim::AttackSpec a;
  a.link = {8, Direction::kNorth};  // column-0 feeder toward router 0
  a.tasp.kind = trojan::TargetKind::kDest;
  a.tasp.target_dest = 0;
  a.enable_killsw_at = 500;
  sc.attacks.push_back(a);
  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppTrafficModel model(net.geometry(),
                                 traffic::blackscholes_profile());
  traffic::TrafficGenerator::Params gp;
  gp.seed = 42;
  gp.total_requests = 400;
  traffic::TrafficGenerator gen(net, model, gp, disp);
  Cycle c = 0;
  while (!gen.done() && c < 400000) {
    gen.step();
    simulator.step();
    ++c;
  }
  EXPECT_TRUE(gen.done());
  EXPECT_GT(simulator.tasp(0).stats().injections, 0u);
}

TEST(Scaling, UpdownReconfiguresEightByEight) {
  Network net(mesh8x8());
  net.disable_link({9, Direction::kWest});
  net.disable_link({8, Direction::kEast});
  net.use_updown_routing();
  int delivered = 0;
  net.set_delivery_callback([&](Cycle, const PacketInfo&, Cycle) { ++delivered; });
  PacketInfo info;
  info.id = net.next_packet_id();
  info.src_core = 9;
  info.dest_core = 8;
  info.src_router = 9;
  info.dest_router = 8;
  info.length = 2;
  ASSERT_TRUE(net.try_inject(info, {1}));
  net.run(400);
  EXPECT_EQ(delivered, 1);
}

TEST(Scaling, RectangularMeshWithConcentrationTwo) {
  NocConfig cfg;
  cfg.mesh_width = 8;
  cfg.mesh_height = 2;
  cfg.concentration = 2;
  Network net(cfg);
  EXPECT_EQ(net.geometry().num_cores(), 32);
  int delivered = 0;
  net.set_delivery_callback([&](Cycle, const PacketInfo&, Cycle) { ++delivered; });
  PacketInfo info;
  info.id = net.next_packet_id();
  info.src_core = 0;
  info.dest_core = 31;
  info.src_router = 0;
  info.dest_router = 15;
  info.length = 3;
  ASSERT_TRUE(net.try_inject(info, {1, 2}));
  net.run(400);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.check_invariants(), "");
}

}  // namespace
}  // namespace htnoc
