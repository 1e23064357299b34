#include "noc/updown.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "common/rng.hpp"

namespace htnoc {
namespace {

class UpDownTest : public ::testing::Test {
 protected:
  MeshGeometry geom{4, 4, 4};

  Flit flit_to(RouterId dest, bool phase_down = false) const {
    Flit f;
    f.dest_router = dest;
    f.dest_core = geom.core_at(dest, 0);
    f.route_phase_down = phase_down;
    return f;
  }

  /// Walk a route end to end; returns hop count, asserting termination and
  /// the up*/down* ordering invariant (never up after down).
  int walk(const UpDownRouting& ud, RouterId src, RouterId dest) {
    RouterId here = src;
    bool down = false;
    int hops = 0;
    while (true) {
      Flit f = flit_to(dest, down);
      const RouteDecision d = ud.route(here, f);
      EXPECT_GE(d.out_port, 0) << "unroutable at " << here;
      if (d.out_port < 0) return -1;
      if (is_local_port(d.out_port)) {
        EXPECT_EQ(here, dest);
        return hops;
      }
      const Direction dir = port_direction(d.out_port);
      EXPECT_TRUE(ud.link_enabled(here, dir)) << "routed over dead link";
      const bool up_hop = ud.is_up(here, dir);
      if (down) {
        EXPECT_FALSE(up_hop) << "down->up violation at " << here;
      }
      down = d.next_phase_down;
      here = geom.neighbor(here, dir);
      ++hops;
      EXPECT_LE(hops, 32) << "route did not terminate";
      if (hops > 32) return -1;
    }
  }
};

TEST_F(UpDownTest, HealthyMeshAllPairsRoute) {
  const UpDownRouting ud(geom, {});
  for (RouterId s = 0; s < 16; ++s) {
    for (RouterId d = 0; d < 16; ++d) {
      if (s == d) continue;
      EXPECT_TRUE(ud.reachable(s, d));
      EXPECT_GE(walk(ud, s, d), geom.hop_distance(s, d));
    }
  }
}

TEST_F(UpDownTest, HealthyMeshLevelsAreBfsDepths) {
  const UpDownRouting ud(geom, {});
  EXPECT_EQ(ud.level(0), 0);
  EXPECT_EQ(ud.level(1), 1);
  EXPECT_EQ(ud.level(4), 1);
  EXPECT_EQ(ud.level(5), 2);
  EXPECT_EQ(ud.level(15), 6);
}

TEST_F(UpDownTest, SingleLinkFailureRoutesAround) {
  // Kill r4<->r0 (both directions, as the reconfiguration policy does).
  const std::set<LinkRef> dead = {{4, Direction::kNorth}, {0, Direction::kSouth}};
  const UpDownRouting ud(geom, dead);
  for (RouterId s = 0; s < 16; ++s) {
    for (RouterId d = 0; d < 16; ++d) {
      if (s != d) {
        EXPECT_GE(walk(ud, s, d), 0);
      }
    }
  }
  // Routes through the dead link are forbidden.
  EXPECT_FALSE(ud.link_enabled(4, Direction::kNorth));
  EXPECT_FALSE(ud.link_enabled(0, Direction::kSouth));
}

TEST_F(UpDownTest, HalfDeadEdgeTreatedAsFullyDead) {
  const std::set<LinkRef> dead = {{4, Direction::kNorth}};  // one direction
  const UpDownRouting ud(geom, dead);
  EXPECT_FALSE(ud.link_enabled(4, Direction::kNorth));
  EXPECT_FALSE(ud.link_enabled(0, Direction::kSouth));  // symmetric kill
  for (RouterId s = 0; s < 16; ++s) {
    for (RouterId d = 0; d < 16; ++d) {
      if (s != d) {
        EXPECT_GE(walk(ud, s, d), 0);
      }
    }
  }
}

TEST_F(UpDownTest, MultipleFailuresStillConnected) {
  Rng rng(2024);
  // 10 trials of 4 random dead edges each (bidirectional kills).
  for (int trial = 0; trial < 10; ++trial) {
    std::set<LinkRef> dead;
    for (int k = 0; k < 4; ++k) {
      const auto r = static_cast<RouterId>(rng.next_below(16));
      const auto d = static_cast<Direction>(rng.next_below(4));
      if (!geom.has_neighbor(r, d)) continue;
      dead.insert({r, d});
      dead.insert({geom.neighbor(r, d), opposite(d)});
    }
    try {
      const UpDownRouting ud(geom, dead);
      for (RouterId s = 0; s < 16; ++s) {
        for (RouterId t = 0; t < 16; ++t) {
          if (s != t) {
            ASSERT_GE(walk(ud, s, t), 0) << "trial " << trial;
          }
        }
      }
    } catch (const ContractViolation&) {
      // Legitimately disconnected draws are allowed to throw.
    }
  }
}

TEST_F(UpDownTest, ChannelDependencyGraphIsAcyclic) {
  // Deadlock freedom: build the channel dependency graph implied by legal
  // up*/down* moves and verify it has no cycle. A channel is (router, dir);
  // an edge exists when a packet can traverse channel A then channel B
  // under the phase rules.
  const UpDownRouting ud(geom, {});
  struct Chan {
    RouterId from;
    Direction dir;
    int phase_after;  // 0 after an up hop, 1 after a down hop
  };
  // Node id: link_index * 2 + phase_after.
  const int n = geom.num_routers() * 4 * 2;
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  const std::array<Direction, 4> dirs = {Direction::kNorth, Direction::kSouth,
                                         Direction::kEast, Direction::kWest};
  for (RouterId r = 0; r < 16; ++r) {
    for (const Direction d1 : dirs) {
      if (!geom.has_neighbor(r, d1) || !ud.link_enabled(r, d1)) continue;
      const bool up1 = ud.is_up(r, d1);
      const int phase1 = up1 ? 0 : 1;
      const RouterId mid = geom.neighbor(r, d1);
      for (const Direction d2 : dirs) {
        if (!geom.has_neighbor(mid, d2) || !ud.link_enabled(mid, d2)) continue;
        const bool up2 = ud.is_up(mid, d2);
        if (phase1 == 1 && up2) continue;  // illegal: up after down
        const int phase2 = up2 ? 0 : 1;
        adj[static_cast<std::size_t>(link_index({r, d1}) * 2 + phase1)].push_back(
            link_index({mid, d2}) * 2 + phase2);
      }
    }
  }
  // DFS cycle check.
  std::vector<int> color(static_cast<std::size_t>(n), 0);
  bool cyclic = false;
  std::function<void(int)> dfs = [&](int u) {
    color[static_cast<std::size_t>(u)] = 1;
    for (const int v : adj[static_cast<std::size_t>(u)]) {
      if (color[static_cast<std::size_t>(v)] == 1) {
        cyclic = true;
      } else if (color[static_cast<std::size_t>(v)] == 0) {
        dfs(v);
      }
    }
    color[static_cast<std::size_t>(u)] = 2;
  };
  for (int u = 0; u < n; ++u) {
    if (color[static_cast<std::size_t>(u)] == 0) dfs(u);
  }
  EXPECT_FALSE(cyclic) << "up*/down* channel dependency cycle found";
}

TEST_F(UpDownTest, DisconnectionThrows) {
  // Cut r15 off entirely (both its edges, both directions).
  const std::set<LinkRef> dead = {{15, Direction::kNorth},
                                  {11, Direction::kSouth},
                                  {15, Direction::kWest},
                                  {14, Direction::kEast}};
  EXPECT_THROW(UpDownRouting(geom, dead), ContractViolation);
}

TEST_F(UpDownTest, LocalDeliveryKeepsPhase) {
  const UpDownRouting ud(geom, {});
  Flit f = flit_to(3, true);
  const RouteDecision d = ud.route(3, f);
  EXPECT_TRUE(is_local_port(d.out_port));
  EXPECT_TRUE(d.next_phase_down);
}

}  // namespace
}  // namespace htnoc
