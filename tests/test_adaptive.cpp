#include "noc/adaptive.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "noc/network.hpp"
#include "traffic/generator.hpp"

namespace htnoc {
namespace {

class WestFirstTest : public ::testing::Test {
 protected:
  MeshGeometry geom{4, 4, 4};

  Flit flit_to(RouterId dest) const {
    Flit f;
    f.dest_router = dest;
    f.dest_core = geom.core_at(dest, 0);
    return f;
  }
};

TEST_F(WestFirstTest, WestwardHopsComeFirst) {
  WestFirstRouting wf(geom);
  // r7 (3,1) -> r0 (0,0): must go west, not north, until x matches.
  EXPECT_EQ(wf.route(7, flit_to(0)).out_port, kPortWest);
  EXPECT_EQ(wf.route(6, flit_to(0)).out_port, kPortWest);
  EXPECT_EQ(wf.route(5, flit_to(0)).out_port, kPortWest);
  EXPECT_EQ(wf.route(4, flit_to(0)).out_port, kPortNorth);
}

TEST_F(WestFirstTest, AdaptivePhasePicksLeastCongested) {
  int north_score = 10;
  int east_score = 1;
  WestFirstRouting wf(geom, [&](RouterId, int port) {
    if (port == kPortNorth) return north_score;
    if (port == kPortEast) return east_score;
    return 5;
  });
  // r8 (0,2) -> r3 (3,0): both E and N are productive.
  EXPECT_EQ(wf.route(8, flit_to(3)).out_port, kPortEast);
  east_score = 20;
  EXPECT_EQ(wf.route(8, flit_to(3)).out_port, kPortNorth);
}

TEST_F(WestFirstTest, AllPairsMinimalDelivery) {
  WestFirstRouting wf(geom);
  for (RouterId s = 0; s < 16; ++s) {
    for (RouterId d = 0; d < 16; ++d) {
      if (s == d) continue;
      RouterId here = s;
      int hops = 0;
      while (here != d) {
        const RouteDecision dec = wf.route(here, flit_to(d));
        ASSERT_GE(dec.out_port, 0);
        ASSERT_FALSE(is_local_port(dec.out_port));
        here = geom.neighbor(here, port_direction(dec.out_port));
        ++hops;
        ASSERT_LE(hops, 6);
      }
      EXPECT_EQ(hops, geom.hop_distance(s, d));
    }
  }
}

TEST_F(WestFirstTest, ProhibitedTurnsNeverTaken) {
  // Turn-model deadlock freedom: the two turns INTO west (N->W and S->W)
  // must never occur on any route.
  WestFirstRouting wf(geom);
  for (RouterId s = 0; s < 16; ++s) {
    for (RouterId d = 0; d < 16; ++d) {
      if (s == d) continue;
      RouterId here = s;
      Direction last = Direction::kLocal;
      while (here != d) {
        const RouteDecision dec = wf.route(here, flit_to(d));
        const Direction dir = port_direction(dec.out_port);
        if (dir == Direction::kWest) {
          EXPECT_TRUE(last == Direction::kLocal || last == Direction::kWest)
              << "illegal turn into west from " << to_string(last);
        }
        last = dir;
        here = geom.neighbor(here, dir);
      }
    }
  }
}

TEST_F(WestFirstTest, NetworkDeliversUnderWestFirst) {
  NocConfig cfg;
  Network net(cfg);
  net.use_west_first_routing();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppTrafficModel model(net.geometry(),
                                 traffic::blackscholes_profile());
  traffic::TrafficGenerator::Params gp;
  gp.seed = 31;
  gp.total_requests = 300;
  traffic::TrafficGenerator gen(net, model, gp, disp);
  Cycle c = 0;
  while (!gen.done() && c < 200000) {
    gen.step();
    net.step();
    ++c;
    if (c % 50 == 0) {
      ASSERT_EQ(net.check_invariants(), "");
    }
  }
  EXPECT_TRUE(gen.done());
}

TEST_F(WestFirstTest, AdaptiveSpreadsHotspotLoadAcrossPaths) {
  // Under x-y all r5->r3-ish traffic uses a single path; west-first with
  // congestion feedback spreads across E/N orders. Measure link usage
  // diversity for a fixed flow set.
  const auto run = [&](bool adaptive) {
    NocConfig cfg;
    Network net(cfg);
    if (adaptive) net.use_west_first_routing();
    int delivered = 0;
    net.set_delivery_callback([&](Cycle, const PacketInfo&, Cycle) { ++delivered; });
    for (int i = 0; i < 40; ++i) {
      PacketInfo info;
      info.id = net.next_packet_id();
      info.src_core = net.geometry().core_at(8, 0);   // r8 (0,2)
      info.dest_core = net.geometry().core_at(3, 0);  // r3 (3,0)
      info.src_router = 8;
      info.dest_router = 3;
      info.length = 3;
      while (!net.try_inject(info, {1, 2})) net.step();
      net.step();
    }
    net.run(800);
    // Count distinct mesh links used.
    int used = 0;
    for (const LinkRef& l : net.all_links()) {
      if (net.link(l.from, l.dir).stats().phits_sent > 0) ++used;
    }
    return std::make_pair(delivered, used);
  };
  const auto [xy_delivered, xy_links] = run(false);
  const auto [wf_delivered, wf_links] = run(true);
  EXPECT_EQ(xy_delivered, 40);
  EXPECT_EQ(wf_delivered, 40);
  EXPECT_GE(wf_links, xy_links);  // adaptive never uses fewer paths
}

TEST_F(WestFirstTest, RequiresHealthyTopology) {
  NocConfig cfg;
  Network net(cfg);
  net.disable_link({0, Direction::kEast});
  EXPECT_THROW(net.use_west_first_routing(), ContractViolation);
}

}  // namespace
}  // namespace htnoc
