// Up*/down* table-based routing with runtime reconfiguration around
// disabled links — our stand-in for the paper's "Rerouting (Ariadne)"
// baseline (Fig. 10). Ariadne reconfigures a NoC after faults using
// up*/down* routing; we compute the same routing function centrally.
//
// A breadth-first spanning tree is built over the healthy topology. A link
// points "up" when it moves toward the root (lower BFS level; id as the
// tie-break). A legal route is zero or more up hops followed by zero or
// more down hops — a packet that has taken a down hop may never go up
// again, which provably breaks all cyclic channel dependencies.
//
// The per-packet phase bit ("has gone down yet") rides in
// Flit::route_phase_down, exactly as a real implementation would carry it
// in a header bit.
#pragma once

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/geometry.hpp"
#include "noc/routing.hpp"

namespace htnoc {

class UpDownRouting final : public RoutingFunction {
 public:
  /// Build routing tables over the topology minus `disabled_links`.
  /// Throws ContractViolation when the surviving directed graph leaves some
  /// router unable to reach another (the network is then unusable anyway).
  UpDownRouting(const MeshGeometry& geom, const std::set<LinkRef>& disabled_links);

  [[nodiscard]] RouteDecision route(RouterId here, const Flit& f) const override;
  [[nodiscard]] std::string name() const override { return "updown"; }

  /// True when a packet at `from` (fresh, phase-up) can legally reach `to`.
  [[nodiscard]] bool reachable(RouterId from, RouterId to) const;

  /// BFS level of a router in the spanning tree (root = 0). For tests.
  [[nodiscard]] int level(RouterId r) const {
    return levels_[static_cast<std::size_t>(r)];
  }

  /// True when traversing (from, dir) is an "up" hop. For tests.
  [[nodiscard]] bool is_up(RouterId from, Direction dir) const;

  [[nodiscard]] bool link_enabled(RouterId from, Direction dir) const {
    return enabled_[static_cast<std::size_t>(link_index({from, dir}))];
  }

 private:
  static constexpr int kUnreachable = 1 << 20;

  [[nodiscard]] RouteDecision route_with_phase(RouterId here, RouterId dest,
                                               int phase) const;

  // dist_[dest][router*2 + phase]: legal hops from (router, phase) to dest;
  // phase 0 = may still go up, phase 1 = down-only.
  [[nodiscard]] int dist(RouterId dest, RouterId r, int phase) const {
    return dist_[static_cast<std::size_t>(dest)]
                [static_cast<std::size_t>(r) * 2 + static_cast<std::size_t>(phase)];
  }

  MeshGeometry geom_;
  std::vector<bool> enabled_;       // per link_index
  std::vector<int> levels_;         // per router
  std::vector<std::vector<int>> dist_;
};

}  // namespace htnoc
