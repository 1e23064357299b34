#include "noc/output_unit.hpp"

#include <gtest/gtest.h>

#include "noc/protocol.hpp"

namespace htnoc {
namespace {

Flit make_flit(PacketId packet, int seq, int len, VcId vc,
               std::uint64_t wire = 0x1234) {
  Flit f;
  f.packet = packet;
  f.seq = seq;
  f.length = len;
  f.vc = vc;
  f.wire = wire;
  if (len == 1) {
    f.type = FlitType::kHeadTail;
  } else if (seq == 0) {
    f.type = FlitType::kHead;
  } else if (seq == len - 1) {
    f.type = FlitType::kTail;
  } else {
    f.type = FlitType::kBody;
  }
  return f;
}

class OutputUnitTest : public ::testing::Test {
 protected:
  NocConfig cfg;
  Link link;
  OutputUnit out{cfg};

  void SetUp() override { out.connect(&link); }

  /// The phits `l` delivers at cycle `now`.
  static std::vector<LinkPhit> arrivals(Link& l, Cycle now) {
    std::vector<LinkPhit> arr;
    l.drain_arrivals(now, arr);
    return arr;
  }

  /// Apply the credits and ACK/NACKs due at `now`, as a router does.
  void control(Cycle now) {
    out.drain_control(now);
    out.process_staged_control(now);
  }

  void deliver_and_ack(Cycle send_cycle, bool ok) {
    const auto arr = arrivals(link, send_cycle + 1);
    ASSERT_EQ(arr.size(), 1u);
    AckMsg a;
    a.packet = arr[0].flit.packet;
    a.seq = arr[0].flit.seq;
    a.attempt = arr[0].attempt;
    a.ok = ok;
    link.send_ack(send_cycle + 1, a);
  }
};

TEST_F(OutputUnitTest, VcAllocationLifecycle) {
  EXPECT_TRUE(out.vc_free(0));
  out.allocate_vc(0);
  EXPECT_FALSE(out.vc_free(0));
  EXPECT_THROW(out.allocate_vc(0), ContractViolation);
  out.release_vc(0);
  EXPECT_TRUE(out.vc_free(0));
  EXPECT_THROW(out.release_vc(0), ContractViolation);
}

TEST_F(OutputUnitTest, AcceptConsumesCreditAndTailReleasesVc) {
  out.allocate_vc(1);
  EXPECT_EQ(out.credits(1), cfg.buffer_depth);
  out.accept(0, make_flit(1, 0, 2, 1), 2);
  EXPECT_EQ(out.credits(1), cfg.buffer_depth - 1);
  EXPECT_FALSE(out.vc_free(1));
  out.accept(1, make_flit(1, 1, 2, 1), 3);
  EXPECT_EQ(out.credits(1), cfg.buffer_depth - 2);
  EXPECT_TRUE(out.vc_free(1));  // tail released the allocation
  EXPECT_EQ(out.occupancy(), 2);
}

TEST_F(OutputUnitTest, RejectsAcceptBeyondCapacity) {
  out.allocate_vc(0);
  // buffer_depth credits = 4 but retrans capacity also 4.
  for (int i = 0; i < cfg.retrans_depth; ++i) {
    out.accept(i, make_flit(1, i, 8, 0), i + 2);
  }
  EXPECT_FALSE(out.has_free_slot());
  EXPECT_THROW(out.accept(9, make_flit(1, 5, 8, 0), 11), ContractViolation);
}

TEST_F(OutputUnitTest, LtSendsWhenEligibleAndAckClearsSlot) {
  out.allocate_vc(0);
  out.accept(0, make_flit(7, 0, 1, 0), 2);
  out.step_lt(1);  // not yet eligible
  EXPECT_TRUE(arrivals(link, 2).empty());
  out.step_lt(2);            // LT at 2, arrival at 3
  deliver_and_ack(2, true);  // ACK sent at 3, delivered at 4
  EXPECT_EQ(out.occupancy(), 1);  // still in-flight awaiting ack
  control(4);
  EXPECT_EQ(out.occupancy(), 0);
  EXPECT_EQ(out.stats().transmissions, 1u);
  EXPECT_EQ(out.stats().acks, 1u);
}

TEST_F(OutputUnitTest, NackTriggersRetransmissionWithBumpedAttempt) {
  out.allocate_vc(0);
  out.accept(0, make_flit(7, 0, 1, 0), 1);
  out.step_lt(1);             // LT at 1, arrival at 2
  deliver_and_ack(1, false);  // NACK sent at 2, delivered at 3
  control(3);
  EXPECT_EQ(out.stats().nacks, 1u);
  EXPECT_EQ(out.occupancy(), 1);
  out.step_lt(4);  // eligible again at nack_cycle + 1
  const auto arr = arrivals(link, 5);
  ASSERT_EQ(arr.size(), 1u);
  EXPECT_EQ(arr[0].attempt, 1);
  EXPECT_EQ(out.stats().retransmissions, 1u);
}

TEST_F(OutputUnitTest, CreditReturnsRaiseCounter) {
  out.allocate_vc(2);
  out.accept(0, make_flit(1, 0, 1, 2), 2);
  EXPECT_EQ(out.credits(2), cfg.buffer_depth - 1);
  link.send_credit(5, CreditMsg{2});
  control(6);
  EXPECT_EQ(out.credits(2), cfg.buffer_depth);
}

TEST_F(OutputUnitTest, CreditOverflowIsInvariantViolation) {
  link.send_credit(0, CreditMsg{0});
  out.drain_control(1);
  EXPECT_THROW(out.process_staged_control(1), ContractViolation);
}

TEST_F(OutputUnitTest, OldestEligibleSlotSendsFirst) {
  out.allocate_vc(0);
  out.accept(0, make_flit(1, 0, 4, 0), 2);
  out.accept(1, make_flit(1, 1, 4, 0), 2);
  out.step_lt(2);
  const auto arr = arrivals(link, 3);
  ASSERT_EQ(arr.size(), 1u);
  EXPECT_EQ(arr[0].flit.seq, 0);
}

TEST_F(OutputUnitTest, UnmatchedAckIsIgnoredAfterPurge) {
  out.allocate_vc(0);
  out.accept(0, make_flit(7, 0, 1, 0), 1);
  out.step_lt(1);
  (void)out.purge_packet(7, {});
  deliver_and_ack(1, true);
  EXPECT_NO_THROW(control(2));
  EXPECT_EQ(out.occupancy(), 0);
}

TEST_F(OutputUnitTest, PurgeRestoresCreditsForUnbufferedFlits) {
  out.allocate_vc(0);
  out.accept(0, make_flit(7, 0, 2, 0), 2);
  out.accept(1, make_flit(7, 1, 2, 0), 3);
  EXPECT_EQ(out.credits(0), cfg.buffer_depth - 2);
  EXPECT_EQ(out.purge_packet(7, {}), 2);
  EXPECT_EQ(out.credits(0), cfg.buffer_depth);
  EXPECT_EQ(out.occupancy(), 0);
}

TEST_F(OutputUnitTest, PurgeSkipsCreditForReceiverBufferedFlit) {
  out.allocate_vc(0);
  Flit f = make_flit(7, 0, 1, 0);
  const std::uint64_t uid = f.flit_uid();
  out.accept(0, std::move(f), 1);
  out.step_lt(1);  // now in flight
  EXPECT_EQ(out.purge_packet(7, {uid}), 1);
  // Credit must come back via the reverse channel instead.
  EXPECT_EQ(out.credits(0), cfg.buffer_depth - 1);
}

TEST_F(OutputUnitTest, BlockedDetectsStuckRetransmission) {
  out.allocate_vc(0);
  out.accept(0, make_flit(7, 0, 1, 0), 1);
  EXPECT_FALSE(out.blocked(10));
  EXPECT_TRUE(out.blocked(100));  // stale slot, no progress
}

TEST_F(OutputUnitTest, TdmHoldsFlitsOutsideTheirSlot) {
  NocConfig tdm_cfg;
  tdm_cfg.tdm_enabled = true;
  Link l2;
  OutputUnit o2(tdm_cfg);
  o2.connect(&l2);
  o2.allocate_vc(0);
  Flit f = make_flit(1, 0, 1, 0);
  f.domain = TdmDomain::kD2;  // odd cycles only
  o2.accept(0, std::move(f), 0);
  o2.step_lt(2);  // even: D1 slot
  EXPECT_TRUE(arrivals(l2, 3).empty());
  o2.step_lt(3);  // odd: D2 slot
  EXPECT_EQ(arrivals(l2, 4).size(), 1u);
}

TEST_F(OutputUnitTest, PacketsInSlotsListsDistinctIds) {
  out.allocate_vc(0);
  out.allocate_vc(1);
  out.accept(0, make_flit(5, 0, 4, 0), 2);
  out.accept(0, make_flit(6, 0, 1, 1), 2);
  out.accept(1, make_flit(5, 1, 4, 0), 3);
  const auto ids = out.packets_in_slots();
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_TRUE(out.has_packet(5));
  EXPECT_TRUE(out.has_packet(6));
  EXPECT_FALSE(out.has_packet(7));
}

}  // namespace
}  // namespace htnoc
