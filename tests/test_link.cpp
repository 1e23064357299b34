#include "noc/link.hpp"

#include <gtest/gtest.h>

#include "ecc/secded.hpp"

namespace htnoc {
namespace {

LinkPhit make_phit(PacketId packet, int seq, std::uint64_t data) {
  LinkPhit p;
  p.flit.packet = packet;
  p.flit.seq = seq;
  p.flit.wire = data;
  p.codeword = ecc::secded().encode(data);
  return p;
}

// The phits, credits and ACK/NACKs `l` delivers at cycle `now`.
std::vector<LinkPhit> arrivals(Link& l, Cycle now) {
  std::vector<LinkPhit> out;
  l.drain_arrivals(now, out);
  return out;
}
std::vector<CreditMsg> credits(Link& l, Cycle now) {
  std::vector<CreditMsg> out;
  l.drain_credits(now, out);
  return out;
}
std::vector<AckMsg> acks(Link& l, Cycle now) {
  std::vector<AckMsg> out;
  l.drain_acks(now, out);
  return out;
}

TEST(Link, DeliversAfterLatency) {
  Link l;
  l.send(10, make_phit(1, 0, 0xAA));
  EXPECT_TRUE(arrivals(l, 10).empty());
  const auto arr = arrivals(l, 11);
  ASSERT_EQ(arr.size(), 1u);
  EXPECT_EQ(arr[0].flit.packet, 1u);
  EXPECT_EQ(arr[0].sent_cycle, 10u);
  EXPECT_TRUE(l.idle());
}

TEST(Link, OnePhitPerCycle) {
  Link l;
  EXPECT_TRUE(l.can_send(5));
  l.send(5, make_phit(1, 0, 0));
  EXPECT_FALSE(l.can_send(5));
  EXPECT_TRUE(l.can_send(6));
}

TEST(Link, DoubleSendSameCycleIsContractViolation) {
  Link l;
  l.send(5, make_phit(1, 0, 0));
  EXPECT_THROW(l.send(5, make_phit(1, 1, 0)), ContractViolation);
}

TEST(Link, DisabledLinkRejects) {
  Link l;
  l.set_disabled(true);
  EXPECT_FALSE(l.can_send(0));
  l.set_disabled(false);
  EXPECT_TRUE(l.can_send(0));
}

TEST(Link, CreditChannelHasOneCycleDelay) {
  Link l;
  l.send_credit(7, CreditMsg{2});
  EXPECT_TRUE(credits(l, 7).empty());
  const auto got = credits(l, 8);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].vc, 2);
}

TEST(Link, AckChannelDeliversInOrderWithDelay) {
  Link l;
  AckMsg a;
  a.packet = 9;
  a.seq = 1;
  a.ok = false;
  a.escalate_obfuscation = true;
  l.send_ack(3, a);
  AckMsg b;
  b.packet = 9;
  b.seq = 2;
  b.ok = true;
  l.send_ack(4, b);
  EXPECT_TRUE(acks(l, 3).empty());
  auto got = acks(l, 4);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_FALSE(got[0].ok);
  EXPECT_TRUE(got[0].escalate_obfuscation);
  got = acks(l, 5);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(got[0].ok);
}

TEST(Link, StatsCountTraffic) {
  Link l;
  l.send(0, make_phit(1, 0, 0));
  l.send(1, make_phit(1, 1, 0));
  l.send_ack(1, AckMsg{.ok = true});
  AckMsg n;
  n.ok = false;
  l.send_ack(2, n);
  l.send_credit(2, CreditMsg{0});
  EXPECT_EQ(l.stats().phits_sent, 2u);
  EXPECT_EQ(l.stats().acks_sent, 1u);
  EXPECT_EQ(l.stats().nacks_sent, 1u);
  EXPECT_EQ(l.stats().credits_sent, 1u);
}

TEST(Link, InjectorsRunInAttachOrderAndCountFaults) {
  Link l;
  l.attach_injector(std::make_shared<PermanentFaultInjector>(
      std::map<unsigned, bool>{{0, true}}));
  l.send(0, make_phit(1, 0, 0));  // encoded zero word: bit 0 is 0 -> flipped
  EXPECT_EQ(l.stats().phits_with_injected_faults, 1u);
  const auto arr = arrivals(l, 1);
  ASSERT_EQ(arr.size(), 1u);
  EXPECT_TRUE(arr[0].codeword.get(0));
}

TEST(Link, ProbeAppliesOnlyPassiveFaults) {
  Link l;
  l.attach_injector(std::make_shared<PermanentFaultInjector>(
      std::map<unsigned, bool>{{5, true}}));
  l.attach_injector(
      std::make_shared<TransientFaultInjector>(TransientFaultInjector::Params{.phit_fault_prob = 1.0}, 7));
  Codeword72 cw;
  const Codeword72 out = l.probe(cw);
  EXPECT_TRUE(out.get(5));
  // Only the stuck bit differs.
  EXPECT_EQ(cw.distance(out), 1);
}

TEST(Link, PurgeRemovesInFlightPacketsSelectively) {
  Link l;
  l.send(0, make_phit(10, 0, 0));
  l.send(1, make_phit(11, 0, 0));
  EXPECT_TRUE(l.has_packet(10));
  const auto uids = l.purge_packet(10);
  EXPECT_EQ(uids.size(), 1u);
  EXPECT_FALSE(l.has_packet(10));
  EXPECT_TRUE(l.has_packet(11));
  EXPECT_TRUE(arrivals(l, 1).empty());
  EXPECT_EQ(arrivals(l, 2).size(), 1u);
}

}  // namespace
}  // namespace htnoc
