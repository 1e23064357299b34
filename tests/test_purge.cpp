// Network-wide packet purge (link-disable recovery): credits, VC
// allocations and buffers must all return to a consistent state, and the
// network must keep working afterwards.
#include <gtest/gtest.h>

#include "noc/network.hpp"

namespace htnoc {
namespace {

class PurgeTest : public ::testing::Test {
 protected:
  NocConfig cfg;
  Network net{cfg};

  PacketInfo make_packet(NodeId src, NodeId dest, int len) {
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

TEST_F(PurgeTest, MidFlightPurgeLeavesNetworkQuiescent) {
  const PacketInfo info = make_packet(0, 63, 5);
  ASSERT_TRUE(net.try_inject(info, std::vector<std::uint64_t>(4, 7)));
  net.run(12);  // spread the wormhole across several routers
  ASSERT_TRUE(net.packet_in_flight(info.id));

  const auto purged = net.purge_packet(info.id);
  EXPECT_EQ(purged.size(), 1u);
  EXPECT_FALSE(net.packet_in_flight(info.id));
  net.run(20);  // let in-flight credits land
  EXPECT_TRUE(net.quiescent());
}

TEST_F(PurgeTest, PurgeAtEveryAgeLeavesConsistentState) {
  // Property sweep: purge the packet after k cycles for many k; afterwards
  // a fresh packet over the same path must still deliver (credits and VC
  // allocations were restored).
  for (int age = 1; age < 40; age += 2) {
    Network n{cfg};
    PacketInfo info;
    info.id = n.next_packet_id();
    info.src_core = 0;
    info.dest_core = 63;
    info.src_router = 0;
    info.dest_router = 15;
    info.length = 4;
    ASSERT_TRUE(n.try_inject(info, std::vector<std::uint64_t>(3, 1)));
    n.run(static_cast<Cycle>(age));
    (void)n.purge_packet(info.id);
    EXPECT_FALSE(n.packet_in_flight(info.id)) << "age " << age;

    int delivered = 0;
    n.set_delivery_callback([&](Cycle, const PacketInfo&, Cycle) { ++delivered; });
    PacketInfo fresh = info;
    fresh.id = n.next_packet_id();
    ASSERT_TRUE(n.try_inject(fresh, std::vector<std::uint64_t>(3, 2)));
    n.run(400);
    EXPECT_EQ(delivered, 1) << "age " << age;
    EXPECT_TRUE(n.quiescent()) << "age " << age;
  }
}

TEST_F(PurgeTest, PurgeOnlyTouchesTheVictim) {
  const PacketInfo a = make_packet(0, 63, 5);
  const PacketInfo b = make_packet(16, 47, 5);
  int delivered_b = 0;
  net.set_delivery_callback([&](Cycle, const PacketInfo& info, Cycle) {
    if (info.id == b.id) ++delivered_b;
  });
  ASSERT_TRUE(net.try_inject(a, std::vector<std::uint64_t>(4, 1)));
  ASSERT_TRUE(net.try_inject(b, std::vector<std::uint64_t>(4, 2)));
  net.run(10);
  (void)net.purge_packet(a.id);
  net.run(400);
  EXPECT_EQ(delivered_b, 1);
  EXPECT_TRUE(net.quiescent());
}

TEST_F(PurgeTest, HeavyTrafficPurgeStorm) {
  // Purge a third of all in-flight packets at a random-ish moment under
  // load; everything else must still deliver and the network must drain.
  std::vector<PacketId> ids;
  int delivered = 0;
  net.set_delivery_callback([&](Cycle, const PacketInfo&, Cycle) { ++delivered; });
  for (NodeId s = 0; s < 64; s += 2) {
    const PacketInfo info = make_packet(s, static_cast<NodeId>(63 - s), 3);
    if (net.try_inject(info, std::vector<std::uint64_t>(2, s))) {
      ids.push_back(info.id);
    }
    net.step();
  }
  int purged = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    if (net.packet_in_flight(ids[i])) {
      (void)net.purge_packet(ids[i]);
      ++purged;
    }
  }
  net.run(2000);
  EXPECT_GT(purged, 0);
  EXPECT_TRUE(net.quiescent());
  EXPECT_EQ(delivered + purged, static_cast<int>(ids.size()));
}

TEST_F(PurgeTest, PurgedPacketInNiQueueNeverEnters) {
  // Inject two packets at the same core; the second is still queued in the
  // NI when we purge it.
  const PacketInfo a = make_packet(0, 60, 4);
  const PacketInfo b = make_packet(0, 60, 4);
  ASSERT_TRUE(net.try_inject(a, std::vector<std::uint64_t>(3, 1)));
  ASSERT_TRUE(net.try_inject(b, std::vector<std::uint64_t>(3, 2)));
  (void)net.purge_packet(b.id);
  int delivered = 0;
  net.set_delivery_callback([&](Cycle, const PacketInfo& info, Cycle) {
    EXPECT_EQ(info.id, a.id);
    ++delivered;
  });
  net.run(400);
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(net.quiescent());
}

TEST_F(PurgeTest, FlitInLinkPhitAndRetransSlotCountedOnce) {
  // A transmitted-but-unacknowledged flit exists in two places at once: the
  // sender's retransmission slot (kInFlight) and the link's forward phit.
  // The purge accounting must deduplicate by uid and count it once.
  const PacketInfo info = make_packet(0, 60, 1);
  ASSERT_TRUE(net.try_inject(info, {}));
  OutputUnit& inj = net.ni(0).injection_port();
  Link* l = inj.link();
  ASSERT_NE(l, nullptr);
  bool dual = false;
  for (int i = 0; i < 20 && !dual; ++i) {
    net.step();
    bool slot_in_flight = false;
    for (int vc = 0; vc < cfg.vcs_per_port; ++vc) {
      inj.for_each_inflight_uid(vc,
                                [&](std::uint64_t) { slot_in_flight = true; });
    }
    dual = slot_in_flight && l->has_packet(info.id);
  }
  ASSERT_TRUE(dual) << "never caught the flit in both locations";

  const auto before = net.purge_totals();
  (void)net.purge_packet(info.id);
  const auto after = net.purge_totals();
  EXPECT_EQ(after.packets, before.packets + 1);
  EXPECT_EQ(after.flits, before.flits + 1)
      << "one distinct flit in two locations must count once";
  EXPECT_FALSE(net.packet_in_flight(info.id));
  net.run(20);  // let in-flight credits land
  EXPECT_TRUE(net.quiescent());
  EXPECT_EQ(net.check_invariants(), "");
}

TEST_F(PurgeTest, PurgeRacingInFlightAckAtEveryOffset) {
  // Regression guard for a purge/ACK race on the retransmission slots: if a
  // purge lands on the same cycle an in-flight ACK for the same packet is
  // processed (or one cycle either side), a slot must not leak — neither
  // held forever (blocking the VC) nor double-released (freeing a slot the
  // ACK already freed, corrupting the credit ledger). Sweep the purge over
  // every cycle offset of a multi-hop flight so each interleaving of
  // {phit on wire, ACK on wire, slot kInFlight, slot retiring} is hit.
  for (int age = 0; age < 60; ++age) {
    Network n{cfg};
    PacketInfo info;
    info.id = n.next_packet_id();
    info.src_core = 0;
    info.dest_core = 63;  // r0 -> r15: the longest path, 6 hops
    info.src_router = 0;
    info.dest_router = 15;
    info.length = 5;
    ASSERT_TRUE(n.try_inject(info, std::vector<std::uint64_t>(4, 0xA5)));
    n.run(static_cast<Cycle>(age));
    (void)n.purge_packet(info.id);
    EXPECT_FALSE(n.packet_in_flight(info.id)) << "age " << age;
    n.run(40);  // drain straggling ACKs/NACKs for the purged packet

    // No retransmission slot anywhere in the fabric may still reference the
    // purged packet once its control traffic has drained.
    const auto holds_packet = [&](const OutputUnit& out) {
      bool held = false;
      for (int vc = 0; vc < cfg.vcs_per_port; ++vc) {
        out.for_each_inflight_uid(vc, [&](std::uint64_t uid) {
          if ((uid >> 8) == info.id) held = true;
        });
      }
      return held;
    };
    for (RouterId r = 0; r < cfg.num_routers(); ++r) {
      const Router& router = n.router(r);
      for (int p = 0; p < router.num_ports(); ++p) {
        EXPECT_FALSE(holds_packet(router.output(p)))
            << "router " << r << " port " << p << " age " << age;
      }
    }
    for (NodeId c = 0; c < n.geometry().num_cores(); ++c) {
      EXPECT_FALSE(holds_packet(n.ni(c).injection_port()))
          << "ni " << c << " age " << age;
    }
    EXPECT_TRUE(n.quiescent()) << "age " << age;
    EXPECT_EQ(n.check_invariants(), "") << "age " << age;

    // Credits and VC state must be fully restored: a fresh packet down the
    // same path still delivers.
    int delivered = 0;
    n.set_delivery_callback(
        [&](Cycle, const PacketInfo&, Cycle) { ++delivered; });
    PacketInfo retry = info;
    retry.id = n.next_packet_id();
    ASSERT_TRUE(n.try_inject(retry, std::vector<std::uint64_t>(4, 0x5A)));
    n.run(400);
    EXPECT_EQ(delivered, 1) << "age " << age;
    EXPECT_TRUE(n.quiescent()) << "age " << age;
  }
}

TEST_F(PurgeTest, DisabledLinkPlusPurgePlusReconfigureDelivers) {
  // The full rerouting recovery sequence, by hand.
  const PacketInfo victim = make_packet(16, 3, 5);  // r4 -> r0 via r4->N
  ASSERT_TRUE(net.try_inject(victim, std::vector<std::uint64_t>(4, 3)));
  net.run(8);
  net.disable_link({4, Direction::kNorth});
  net.disable_link({0, Direction::kSouth});
  (void)net.purge_packet(victim.id);
  for (RouterId r = 0; r < 16; ++r) net.router(r).invalidate_waiting_routes();
  net.use_updown_routing();

  int delivered = 0;
  net.set_delivery_callback([&](Cycle, const PacketInfo&, Cycle) { ++delivered; });
  PacketInfo retry = victim;
  retry.id = net.next_packet_id();
  ASSERT_TRUE(net.try_inject(retry, std::vector<std::uint64_t>(4, 4)));
  net.run(500);
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(net.quiescent());
}

}  // namespace
}  // namespace htnoc
