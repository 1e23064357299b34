// 2-D grid coordinate helpers shared by both fabric kinds (the concentrated
// mesh and the plain mesh): coordinates, core placement, neighbours, hop
// distance and the canonical enumeration of the inter-router links.
#pragma once

#include <cstdlib>
#include <vector>

#include "common/expect.hpp"
#include "common/types.hpp"

namespace htnoc {

/// Router coordinates in a width x height mesh; router id = y*width + x.
struct MeshCoord {
  int x = 0;
  int y = 0;

  [[nodiscard]] constexpr bool operator==(const MeshCoord&) const noexcept = default;
};

/// A unidirectional inter-router link identified by its source router and
/// exit direction.
struct LinkRef {
  RouterId from = kInvalidRouter;
  Direction dir = Direction::kNorth;

  [[nodiscard]] constexpr auto operator<=>(const LinkRef&) const noexcept = default;
};

/// Dense index for LinkRef: from * 4 + dir. Only N/S/E/W links are indexed.
[[nodiscard]] constexpr int link_index(const LinkRef& l) noexcept {
  return static_cast<int>(l.from) * 4 + static_cast<int>(l.dir);
}

/// Static geometry of a (concentrated) 2-D mesh.
class MeshGeometry {
 public:
  MeshGeometry(int width, int height, int concentration)
      : width_(width), height_(height), concentration_(concentration) {
    HTNOC_EXPECT(width > 0 && height > 0 && concentration > 0);
  }

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] int concentration() const noexcept { return concentration_; }
  [[nodiscard]] int num_routers() const noexcept { return width_ * height_; }
  [[nodiscard]] int num_cores() const noexcept {
    return num_routers() * concentration_;
  }

  [[nodiscard]] MeshCoord coord_of(RouterId r) const {
    HTNOC_EXPECT(r < num_routers());
    return MeshCoord{static_cast<int>(r) % width_, static_cast<int>(r) / width_};
  }

  [[nodiscard]] RouterId router_at(MeshCoord c) const {
    HTNOC_EXPECT(c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_);
    return static_cast<RouterId>(c.y * width_ + c.x);
  }

  /// Router serving a given core under block concentration.
  [[nodiscard]] RouterId router_of_core(NodeId core) const {
    HTNOC_EXPECT(core < num_cores());
    return static_cast<RouterId>(core / concentration_);
  }

  /// Index of the core within its router's local ports.
  [[nodiscard]] int local_slot_of_core(NodeId core) const {
    HTNOC_EXPECT(core < num_cores());
    return static_cast<int>(core) % concentration_;
  }

  [[nodiscard]] NodeId core_at(RouterId r, int slot) const {
    HTNOC_EXPECT(r < num_routers() && slot >= 0 && slot < concentration_);
    return static_cast<NodeId>(static_cast<int>(r) * concentration_ + slot);
  }

  /// True when router r has a neighbour in direction d.
  [[nodiscard]] bool has_neighbor(RouterId r, Direction d) const {
    const MeshCoord c = coord_of(r);
    switch (d) {
      case Direction::kNorth: return c.y > 0;
      case Direction::kSouth: return c.y < height_ - 1;
      case Direction::kEast: return c.x < width_ - 1;
      case Direction::kWest: return c.x > 0;
      default: return false;
    }
  }

  [[nodiscard]] RouterId neighbor(RouterId r, Direction d) const {
    HTNOC_EXPECT(has_neighbor(r, d));
    MeshCoord c = coord_of(r);
    switch (d) {
      case Direction::kNorth: --c.y; break;
      case Direction::kSouth: ++c.y; break;
      case Direction::kEast: ++c.x; break;
      case Direction::kWest: --c.x; break;
      default: break;
    }
    return router_at(c);
  }

  /// Minimal (Manhattan) hop distance between two routers.
  [[nodiscard]] int hop_distance(RouterId a, RouterId b) const {
    const MeshCoord ca = coord_of(a);
    const MeshCoord cb = coord_of(b);
    return std::abs(ca.x - cb.x) + std::abs(ca.y - cb.y);
  }

  /// Every directed inter-router link in the canonical order: routers
  /// ascending, then N, S, E, W within a router. Network wires its links
  /// in this order and the fault campaign draws attack links from it, so
  /// the order is part of the determinism contract (goldens, snapshot
  /// bytes, campaign draws).
  [[nodiscard]] std::vector<LinkRef> links() const {
    std::vector<LinkRef> out;
    out.reserve(static_cast<std::size_t>(num_routers()) * 4);
    for (int r = 0; r < num_routers(); ++r) {
      const auto rid = static_cast<RouterId>(r);
      for (const Direction d : {Direction::kNorth, Direction::kSouth,
                                Direction::kEast, Direction::kWest}) {
        if (has_neighbor(rid, d)) out.push_back({rid, d});
      }
    }
    return out;
  }

 private:
  int width_;
  int height_;
  int concentration_;
};

}  // namespace htnoc
