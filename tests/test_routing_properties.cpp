// Property-based routing tests: randomized (fabric kind, size, src, dst)
// tuples checked against the invariants the default x-y routing must
// hold —
//
//   minimality    every hop reduces the Manhattan hop distance by exactly
//                 1, so the walk takes hop_distance(src,dst) hops, no more;
//   loop freedom  an immediate corollary of minimality (distance is a
//                 strictly decreasing measure, no router repeats);
//   dimension     x is fully resolved before the first y hop and never
//   order         revisited — on a mesh this makes the channel dependency
//                 graph acyclic, which is the classic deadlock-freedom
//                 argument for dimension-order routing (Dally & Seitz).
//
// A last, exhaustive test builds that channel dependency graph for every
// fabric kind and size the config accepts and checks it has no cycle.
//
// Every iteration's randomness derives from (base seed, iteration), so a
// failure prints a one-line repro:
//
//   htnoc-routing-repro HTNOC_ROUTING_SEED=0x<seed> HTNOC_ROUTING_ITER=<i>
//
// Re-run exactly that case with both variables in the environment
// (HTNOC_ROUTING_ITER pins the suite to the single failing iteration).
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "noc/flit.hpp"
#include "noc/network.hpp"
#include "noc/updown.hpp"
#include "sweep/spec.hpp"

namespace {

using namespace htnoc;

std::uint64_t base_seed() {
  if (const char* s = std::getenv("HTNOC_ROUTING_SEED")) {
    return std::stoull(s, nullptr, 0);
  }
  return 0x2026'0807;
}

/// < 0: run every iteration; >= 0: run only that one (repro mode).
long pinned_iteration() {
  if (const char* s = std::getenv("HTNOC_ROUTING_ITER")) {
    return std::stol(s);
  }
  return -1;
}

std::string repro_line(std::uint64_t seed, std::uint64_t iter) {
  std::ostringstream os;
  os << "htnoc-routing-repro HTNOC_ROUTING_SEED=0x" << std::hex << seed
     << std::dec << " HTNOC_ROUTING_ITER=" << iter;
  return os.str();
}

/// Draw a random fabric. Sizes span degenerate (2x2) through 8x8, with
/// rectangular grids included; kMesh keeps concentration 1 by definition.
MeshGeometry draw_fabric(Rng& rng) {
  constexpr TopologyKind kKinds[] = {TopologyKind::kConcentratedMesh,
                                     TopologyKind::kMesh};
  NocConfig cfg;
  cfg.topology = kKinds[rng.next_below(std::size(kKinds))];
  cfg.mesh_width = static_cast<int>(rng.next_in(2, 8));
  cfg.mesh_height = static_cast<int>(rng.next_in(2, 8));
  cfg.concentration = cfg.topology == TopologyKind::kMesh
                          ? 1
                          : static_cast<int>(rng.next_in(1, 4));
  cfg.validate();
  return {cfg.mesh_width, cfg.mesh_height, cfg.concentration};
}

Flit head_to(const MeshGeometry& geom, NodeId dest_core) {
  Flit f;
  f.type = FlitType::kHeadTail;
  f.dest_core = dest_core;
  f.dest_router = geom.router_of_core(dest_core);
  return f;
}

[[nodiscard]] bool is_y_port(int port) {
  return port == kPortNorth || port == kPortSouth;
}
[[nodiscard]] bool is_x_port(int port) {
  return port == kPortEast || port == kPortWest;
}

TEST(RoutingProperties, DefaultRoutingIsMinimalLoopFreeDimensionOrdered) {
  const std::uint64_t seed = base_seed();
  const long pinned = pinned_iteration();
  for (std::uint64_t iter = 0; iter < 500; ++iter) {
    if (pinned >= 0 && iter != static_cast<std::uint64_t>(pinned)) continue;
    SCOPED_TRACE(repro_line(seed, iter));
    Rng rng(sweep::mix_seed(seed, iter));

    const MeshGeometry geom = draw_fabric(rng);
    const XyRouting routing(geom);

    const auto src = static_cast<RouterId>(
        rng.next_below(static_cast<std::uint64_t>(geom.num_routers())));
    const auto dest_core = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(geom.num_cores())));
    const Flit f = head_to(geom, dest_core);

    RouterId here = src;
    const int dist = geom.hop_distance(src, f.dest_router);
    bool y_started = false;
    for (int hop = 0; hop <= dist; ++hop) {
      const RouteDecision dec = routing.route(here, f);
      if (here == f.dest_router) {
        ASSERT_EQ(dec.out_port,
                  kPortLocalBase + geom.local_slot_of_core(dest_core))
            << routing.name() << ": wrong ejection port at r" << here;
        ASSERT_EQ(hop, dist)
            << routing.name() << ": route length != hop distance";
        break;
      }
      ASSERT_LT(hop, dist) << routing.name()
                           << ": still not at destination after " << dist
                           << " hops (loop or detour)";
      ASSERT_TRUE(is_x_port(dec.out_port) || is_y_port(dec.out_port))
          << routing.name() << ": non-mesh port " << dec.out_port << " at r"
          << here;
      if (is_y_port(dec.out_port)) {
        y_started = true;
      } else {
        ASSERT_FALSE(y_started)
            << routing.name()
            << ": x hop after a y hop breaks dimension order at r" << here;
      }
      const Direction d = port_direction(dec.out_port);
      ASSERT_TRUE(geom.has_neighbor(here, d))
          << routing.name() << ": routed off the fabric at r" << here;
      const RouterId next = geom.neighbor(here, d);
      ASSERT_EQ(geom.hop_distance(next, f.dest_router),
                geom.hop_distance(here, f.dest_router) - 1)
          << routing.name() << ": non-minimal hop r" << here << " -> r"
          << next;
      here = next;
    }
  }
}

TEST(RoutingProperties, UpDownReachesEveryDestinationOnEveryFabric) {
  // Up*/down* is the reconfiguration fallback on all fabrics. Not
  // minimal — the property here is reachability with a strictly bounded,
  // loop-classifiable walk: up hops strictly precede down hops, so a route
  // can visit at most 2 * num_routers channels.
  const std::uint64_t seed = base_seed();
  const long pinned = pinned_iteration();
  for (std::uint64_t iter = 0; iter < 200; ++iter) {
    if (pinned >= 0 && iter != static_cast<std::uint64_t>(pinned)) continue;
    SCOPED_TRACE(repro_line(seed, iter));
    Rng rng(sweep::mix_seed(seed ^ 0xDEAD, iter));

    const MeshGeometry geom = draw_fabric(rng);
    const UpDownRouting routing(geom, {});

    const auto src = static_cast<RouterId>(
        rng.next_below(static_cast<std::uint64_t>(geom.num_routers())));
    const auto dest_core = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(geom.num_cores())));
    Flit f = head_to(geom, dest_core);

    RouterId here = src;
    const int bound = 2 * geom.num_routers();
    int hop = 0;
    for (; hop <= bound; ++hop) {
      const RouteDecision dec = routing.route(here, f);
      ASSERT_GE(dec.out_port, 0) << "up*/down* unroutable at r" << here;
      if (here == f.dest_router) {
        ASSERT_EQ(dec.out_port,
                  kPortLocalBase + geom.local_slot_of_core(dest_core));
        break;
      }
      const Direction d = port_direction(dec.out_port);
      ASSERT_TRUE(geom.has_neighbor(here, d));
      here = geom.neighbor(here, d);
      f.route_phase_down = dec.next_phase_down;
    }
    ASSERT_LE(hop, bound) << "up*/down* walk exceeded its channel bound";
  }
}

TEST(RoutingProperties, EveryAcceptedFabricRoutesDeadlockFree) {
  // Deadlock freedom of each fabric's default routing (Dally & Seitz): walk
  // every source-to-destination route, add a dependency edge for each pair
  // of consecutive inter-router channels, and require the channel
  // dependency graph to be acyclic. A fabric kind the config refuses is
  // skipped: it can never be built.
  for (const char* name : {"cmesh", "mesh", "torus"}) {
    TopologyKind kind{};
    try {
      kind = topology_kind_from_string(name);
    } catch (const ContractViolation&) {
      continue;
    }
    for (int w = 2; w <= 8; ++w) {
      for (int h = 2; h <= 8; ++h) {
        NocConfig cfg;
        cfg.topology = kind;
        cfg.mesh_width = w;
        cfg.mesh_height = h;
        cfg.concentration = kind == TopologyKind::kMesh ? 1 : 2;
        const Network net(cfg);
        const MeshGeometry& geom = net.geometry();
        const RoutingFunction& routing = net.routing();
        std::ostringstream fabric;
        fabric << name << " " << w << "x" << h;

        // Channel id: link_index of the inter-router link.
        const auto n = static_cast<std::size_t>(geom.num_routers()) * 4;
        std::vector<std::vector<char>> dep(n, std::vector<char>(n, 0));
        for (RouterId src = 0; src < geom.num_routers(); ++src) {
          for (RouterId dst = 0; dst < geom.num_routers(); ++dst) {
            const Flit f = head_to(geom, geom.core_at(dst, 0));
            RouterId here = src;
            int prev = -1;
            for (int hop = 0;; ++hop) {
              ASSERT_LT(hop, geom.num_routers())
                  << fabric.str() << ": route r" << src << " -> r" << dst
                  << " does not end";
              const RouteDecision dec = routing.route(here, f);
              ASSERT_GE(dec.out_port, 0) << fabric.str();
              if (is_local_port(dec.out_port)) break;
              const Direction d = port_direction(dec.out_port);
              const int chan = link_index({here, d});
              if (prev >= 0) {
                dep[static_cast<std::size_t>(prev)]
                   [static_cast<std::size_t>(chan)] = 1;
              }
              prev = chan;
              here = geom.neighbor(here, d);
            }
          }
        }

        // DFS cycle check: colour 1 = on the current path.
        std::vector<int> color(n, 0);
        bool cyclic = false;
        std::function<void(std::size_t)> dfs = [&](std::size_t u) {
          color[u] = 1;
          for (std::size_t v = 0; v < n && !cyclic; ++v) {
            if (dep[u][v] == 0) continue;
            if (color[v] == 1) {
              cyclic = true;
            } else if (color[v] == 0) {
              dfs(v);
            }
          }
          color[u] = 2;
        };
        for (std::size_t u = 0; u < n && !cyclic; ++u) {
          if (color[u] == 0) dfs(u);
        }
        EXPECT_FALSE(cyclic)
            << fabric.str() << ": " << routing.name()
            << " has a channel dependency cycle";
      }
    }
  }
}

}  // namespace
