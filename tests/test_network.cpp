#include "noc/network.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace htnoc {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NocConfig cfg;
  Network net{cfg};

  PacketInfo make_packet(NodeId src, NodeId dest, int len = 1) {
    PacketInfo info;
    info.id = net.next_packet_id();
    info.src_core = src;
    info.dest_core = dest;
    info.src_router = net.geometry().router_of_core(src);
    info.dest_router = net.geometry().router_of_core(dest);
    info.length = len;
    return info;
  }
};

TEST_F(NetworkTest, TopologyHas48MeshLinks) {
  // 4x4 mesh: 2*( (4-1)*4 + 4*(4-1) ) = 48 unidirectional links — the
  // paper's "TASP on all 48 links" worst case.
  EXPECT_EQ(net.all_links().size(), 48u);
}

TEST_F(NetworkTest, LinkAccessorsMatchGeometry) {
  EXPECT_TRUE(net.has_link(0, Direction::kEast));
  EXPECT_FALSE(net.has_link(0, Direction::kWest));
  EXPECT_TRUE(net.has_link(5, Direction::kNorth));
}

TEST_F(NetworkTest, CyclesAdvance) {
  EXPECT_EQ(net.now(), 0u);
  net.run(10);
  EXPECT_EQ(net.now(), 10u);
}

TEST_F(NetworkTest, InjectValidatesCoreIds) {
  PacketInfo bad = make_packet(0, 1);
  bad.src_core = 64;
  EXPECT_THROW((void)net.try_inject(bad, {}), ContractViolation);
}

TEST_F(NetworkTest, DeliveryCountsAggregate) {
  ASSERT_TRUE(net.try_inject(make_packet(3, 62), {}));
  ASSERT_TRUE(net.try_inject(make_packet(62, 3), {}));
  net.run(200);
  EXPECT_EQ(net.packets_injected(), 2u);
  EXPECT_EQ(net.packets_delivered(), 2u);
  EXPECT_TRUE(net.quiescent());
}

TEST_F(NetworkTest, UtilizationSampleCleanWhenIdle) {
  net.run(50);
  const auto s = net.sample_utilization();
  EXPECT_EQ(s.input_port_flits, 0);
  EXPECT_EQ(s.output_port_flits, 0);
  EXPECT_EQ(s.injection_port_flits, 0);
  EXPECT_EQ(s.routers_all_cores_full, 0);
  EXPECT_EQ(s.routers_with_blocked_port, 0);
}

TEST_F(NetworkTest, UtilizationSeesInFlightTraffic) {
  for (int i = 0; i < 10; ++i) {
    (void)net.try_inject(make_packet(0, 63, 5),
                         std::vector<std::uint64_t>(4, 1));
  }
  net.run(6);
  const auto s = net.sample_utilization();
  EXPECT_GT(s.injection_port_flits + s.input_port_flits + s.output_port_flits,
            0);
}

TEST_F(NetworkTest, DisableLinkTracksSet) {
  net.disable_link({0, Direction::kEast});
  EXPECT_TRUE(net.disabled_links().contains(LinkRef{0, Direction::kEast}));
  EXPECT_TRUE(net.link(0, Direction::kEast).disabled());
}

TEST_F(NetworkTest, UpdownReconfigurationDeliversAroundDeadLink) {
  net.disable_link({0, Direction::kEast});
  net.disable_link({1, Direction::kWest});
  net.use_updown_routing();
  int delivered = 0;
  net.set_delivery_callback([&](Cycle, const PacketInfo&, Cycle) { ++delivered; });
  ASSERT_TRUE(net.try_inject(make_packet(0, 4), {}));  // r0 -> r1
  net.run(300);
  EXPECT_EQ(delivered, 1);
}

TEST_F(NetworkTest, XyRoutingRequiresHealthyTopology) {
  net.disable_link({0, Direction::kEast});
  EXPECT_THROW(net.use_xy_routing(), ContractViolation);
}

TEST_F(NetworkTest, PurgeUnknownPacketIsHarmless) {
  const auto ids = net.purge_packet(9999);
  EXPECT_EQ(ids.size(), 1u);  // the requested id itself, nothing else
  EXPECT_TRUE(net.quiescent());
}

TEST_F(NetworkTest, PacketIdsAreUnique) {
  const PacketId a = net.next_packet_id();
  const PacketId b = net.next_packet_id();
  EXPECT_NE(a, b);
}

TEST_F(NetworkTest, NonDefaultGeometry) {
  NocConfig small;
  small.mesh_width = 2;
  small.mesh_height = 2;
  small.concentration = 1;
  Network n2(small);
  EXPECT_EQ(n2.all_links().size(), 8u);
  int delivered = 0;
  n2.set_delivery_callback([&](Cycle, const PacketInfo&, Cycle) { ++delivered; });
  PacketInfo info;
  info.id = n2.next_packet_id();
  info.src_core = 0;
  info.dest_core = 3;
  info.src_router = 0;
  info.dest_router = 3;
  info.length = 2;
  ASSERT_TRUE(n2.try_inject(info, {0xFF}));
  n2.run(100);
  EXPECT_EQ(delivered, 1);
}

TEST_F(NetworkTest, ActiveStepSkipsIdleNetworkEntirely) {
  // Nothing injected: every router and NI is provably idle every cycle.
  net.run(50);
  const auto& ss = net.step_stats();
  EXPECT_EQ(ss.router_steps, 0u);
  EXPECT_EQ(ss.router_skips, 50u * 16u);
  EXPECT_EQ(ss.ni_steps, 0u);
  EXPECT_EQ(ss.ni_skips, 50u * 64u);
}

TEST_F(NetworkTest, ActiveStepDisabledStepsEverything) {
  NocConfig full = cfg;
  full.active_step = false;
  Network n{full};
  n.run(10);
  const auto& ss = n.step_stats();
  EXPECT_EQ(ss.router_steps, 10u * 16u);
  EXPECT_EQ(ss.router_skips, 0u);
  EXPECT_EQ(ss.ni_steps, 10u * 64u);
  EXPECT_EQ(ss.ni_skips, 0u);
}

TEST_F(NetworkTest, ActiveStepIsBitExactWithFullStepping) {
  // Drive two identical networks — one skipping idle units, one stepping
  // everything — with the same staggered traffic; every delivery must
  // happen at the same cycle with the same latency, and the final state
  // must agree.
  NocConfig on = cfg;
  on.active_step = true;
  NocConfig off = cfg;
  off.active_step = false;
  Network a{on};
  Network b{off};

  using Delivery = std::tuple<PacketId, Cycle, Cycle>;
  std::vector<Delivery> da;
  std::vector<Delivery> db;
  a.set_delivery_callback([&](Cycle now, const PacketInfo& i, Cycle lat) {
    da.emplace_back(i.id, now, lat);
  });
  b.set_delivery_callback([&](Cycle now, const PacketInfo& i, Cycle lat) {
    db.emplace_back(i.id, now, lat);
  });

  for (NodeId s = 0; s < 64; s += 3) {
    PacketInfo info = make_packet(s, static_cast<NodeId>(63 - s), 3);
    PacketInfo mirror = info;
    ASSERT_EQ(a.try_inject(info, std::vector<std::uint64_t>(2, s)),
              b.try_inject(mirror, std::vector<std::uint64_t>(2, s)));
    a.run(2);
    b.run(2);
  }
  a.run(600);
  b.run(600);

  EXPECT_EQ(da, db);
  EXPECT_GT(da.size(), 0u);
  EXPECT_EQ(a.packets_delivered(), b.packets_delivered());
  EXPECT_TRUE(a.quiescent());
  EXPECT_TRUE(b.quiescent());
  EXPECT_EQ(a.check_invariants(), "");
  // The skipping run must actually have skipped while agreeing bit-exactly.
  EXPECT_GT(a.step_stats().router_skips, 0u);
  EXPECT_EQ(b.step_stats().router_skips, 0u);
}

TEST_F(NetworkTest, ConfigValidationRejectsBadShapes) {
  NocConfig bad;
  bad.mesh_width = 1;
  EXPECT_THROW(Network{bad}, ContractViolation);
  NocConfig bad2;
  bad2.vcs_per_port = 3;
  bad2.tdm_enabled = true;  // TDM needs an even VC split
  EXPECT_THROW(Network{bad2}, ContractViolation);
}

}  // namespace
}  // namespace htnoc
