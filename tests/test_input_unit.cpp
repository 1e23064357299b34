#include "noc/input_unit.hpp"

#include <gtest/gtest.h>

#include "noc/obfuscation.hpp"

namespace htnoc {
namespace {

Flit make_flit(PacketId packet, int seq, int len, VcId vc, std::uint64_t wire) {
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

LinkPhit phit_of(const Flit& f, ObfuscationTag tag = {},
                 std::uint64_t partner_wire = 0) {
  LinkPhit p;
  p.flit = f;
  std::uint64_t w = f.wire;
  if (tag.method == ObfMethod::kScramble) {
    w = obf::scramble(w, partner_wire, tag.granularity);
  } else if (tag.active()) {
    w = obf::apply(w, tag);
  }
  p.codeword = ecc::secded().encode(w);
  p.obf = tag;
  return p;
}

class InputUnitTest : public ::testing::Test {
 protected:
  NocConfig cfg;
  Link link;
  InputUnit in{cfg, 3, 2};

  void SetUp() override { in.connect(&link); }

  /// Send `p` and take it in next cycle, as a router does.
  void send(Cycle cycle, LinkPhit p) {
    link.send(cycle, std::move(p));
    in.drain_link(cycle + 1);
    in.process_staged(cycle + 1);
  }

  /// The ACK/NACKs and credits the unit has returned by cycle `now`.
  std::vector<AckMsg> acks(Cycle now) {
    std::vector<AckMsg> out;
    link.drain_acks(now, out);
    return out;
  }
  std::vector<CreditMsg> credits(Cycle now) {
    std::vector<CreditMsg> out;
    link.drain_credits(now, out);
    return out;
  }
};

TEST_F(InputUnitTest, CleanFlitBufferedAndAcked) {
  send(0, phit_of(make_flit(1, 0, 1, 0, 0xAB)));
  EXPECT_EQ(in.occupancy(), 1);
  const auto got = acks(2);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(got[0].ok);
  EXPECT_EQ(got[0].packet, 1u);
}

TEST_F(InputUnitTest, CorruptFlitNackedNotBuffered) {
  LinkPhit p = phit_of(make_flit(1, 0, 1, 0, 0xAB));
  p.codeword.flip(3);
  p.codeword.flip(40);
  send(0, std::move(p));
  EXPECT_EQ(in.occupancy(), 0);
  const auto got = acks(2);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_FALSE(got[0].ok);
  EXPECT_EQ(in.stats().nacks_sent, 1u);
}

TEST_F(InputUnitTest, SingleBitErrorCorrectedAndCounted) {
  LinkPhit p = phit_of(make_flit(1, 0, 1, 0, 0xAB));
  p.codeword.flip(10);
  send(0, std::move(p));
  EXPECT_EQ(in.occupancy(), 1);
  EXPECT_EQ(in.stats().corrected_singles, 1u);
  EXPECT_EQ(in.stats().silent_corruptions, 0u);
}

TEST_F(InputUnitTest, ForwardingGatedByBwStage) {
  send(0, phit_of(make_flit(1, 0, 1, 0, 0xAB)));
  EXPECT_FALSE(in.front_flit_ready(1, 0));  // BW takes a cycle
  EXPECT_TRUE(in.front_flit_ready(2, 0));
}

TEST_F(InputUnitTest, PopReturnsCreditAndRetiresStream) {
  send(0, phit_of(make_flit(1, 0, 1, 2, 0xAB)));
  ASSERT_TRUE(in.front_flit_ready(2, 2));
  const Flit f = in.pop_front_flit(2, 2);
  EXPECT_EQ(f.packet, 1u);
  EXPECT_EQ(in.occupancy(), 0);
  EXPECT_TRUE(in.vcbuf(2).streams.empty());
  const auto got = credits(3);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].vc, 2);
}

TEST_F(InputUnitTest, OutOfOrderArrivalReordersBySeq) {
  // seq 1 overtakes seq 0 (retransmission skip, paper Fig. 7).
  send(0, phit_of(make_flit(1, 1, 3, 0, 0x22)));
  EXPECT_FALSE(in.front_flit_ready(5, 0));  // seq 0 missing
  send(1, phit_of(make_flit(1, 0, 3, 0, 0x11)));
  ASSERT_TRUE(in.front_flit_ready(5, 0));
  EXPECT_EQ(in.pop_front_flit(5, 0).seq, 0);
  EXPECT_EQ(in.pop_front_flit(5, 0).seq, 1);
}

TEST_F(InputUnitTest, InterleavedPacketsFormSeparateStreams) {
  send(0, phit_of(make_flit(1, 0, 2, 0, 0x11)));
  send(1, phit_of(make_flit(2, 0, 1, 0, 0x22)));
  EXPECT_EQ(in.vcbuf(0).streams.size(), 2u);
  // Front stream (packet 1) gates the VC.
  EXPECT_EQ(in.vcbuf(0).streams.front().packet, 1u);
  // Packet 1's tail completes and retires; packet 2 becomes front.
  send(2, phit_of(make_flit(1, 1, 2, 0, 0x12)));
  (void)in.pop_front_flit(5, 0);
  (void)in.pop_front_flit(5, 0);
  EXPECT_EQ(in.vcbuf(0).streams.front().packet, 2u);
}

TEST_F(InputUnitTest, InvertedFlitRecoveredWithPenalty) {
  ObfuscationTag tag;
  tag.method = ObfMethod::kInvert;
  tag.granularity = ObfGranularity::kHeader;
  send(0, phit_of(make_flit(1, 0, 1, 0, 0xABCD), tag));
  EXPECT_EQ(in.occupancy(), 1);
  EXPECT_EQ(in.stats().silent_corruptions, 0u);
  // +1 cycle de-obfuscation penalty: ready at arrival(1)+penalty(1)+bw(1).
  EXPECT_FALSE(in.front_flit_ready(2, 0));
  EXPECT_TRUE(in.front_flit_ready(3, 0));
}

TEST_F(InputUnitTest, ScrambledFlitWaitsForPartner) {
  const Flit owner = make_flit(1, 0, 1, 0, 0x1111);
  const Flit partner = make_flit(2, 0, 1, 1, 0x2222);
  ObfuscationTag tag;
  tag.method = ObfMethod::kScramble;
  tag.granularity = ObfGranularity::kFlit;
  tag.partner_packet = partner.packet;
  tag.partner_seq = partner.seq;

  send(0, phit_of(owner, tag, partner.wire));
  EXPECT_EQ(in.stats().scramble_stalls, 1u);
  EXPECT_FALSE(in.front_flit_ready(10, 0));  // held in the station

  send(2, phit_of(partner));  // partner arrives plain
  EXPECT_TRUE(in.front_flit_ready(10, 0));
  EXPECT_TRUE(in.front_flit_ready(10, 1));
  EXPECT_EQ(in.pop_front_flit(10, 0).wire, 0x1111u);
  EXPECT_EQ(in.stats().silent_corruptions, 0u);
}

TEST_F(InputUnitTest, ScrambledFlitResolvesFromWireCacheWhenPartnerFirst) {
  const Flit owner = make_flit(1, 0, 1, 0, 0x1111);
  const Flit partner = make_flit(2, 0, 1, 1, 0x2222);
  send(0, phit_of(partner));  // partner first

  ObfuscationTag tag;
  tag.method = ObfMethod::kScramble;
  tag.granularity = ObfGranularity::kFlit;
  tag.partner_packet = partner.packet;
  tag.partner_seq = partner.seq;
  send(2, phit_of(owner, tag, partner.wire));
  EXPECT_EQ(in.stats().scramble_stalls, 0u);
  EXPECT_TRUE(in.front_flit_ready(10, 0));
  EXPECT_EQ(in.pop_front_flit(10, 0).wire, 0x1111u);
}

TEST_F(InputUnitTest, PurgeRemovesFlitsAndSendsCredits) {
  send(0, phit_of(make_flit(1, 0, 3, 0, 0x11)));
  send(1, phit_of(make_flit(1, 1, 3, 0, 0x12)));
  send(2, phit_of(make_flit(2, 0, 1, 1, 0x21)));
  (void)credits(100);  // drain
  const auto res = in.purge_packet(10, 1);
  EXPECT_EQ(res.flits_purged, 2);
  EXPECT_EQ(res.buffered_uids.size(), 2u);
  EXPECT_FALSE(in.has_packet(1));
  EXPECT_TRUE(in.has_packet(2));
  EXPECT_EQ(credits(100).size(), 2u);
}

TEST_F(InputUnitTest, PurgeFlagsDependentScrambledPackets) {
  const Flit owner = make_flit(5, 0, 1, 0, 0x1111);
  ObfuscationTag tag;
  tag.method = ObfMethod::kScramble;
  tag.granularity = ObfGranularity::kFlit;
  tag.partner_packet = 6;  // partner never arrives
  tag.partner_seq = 0;
  send(0, phit_of(owner, tag, 0x2222));
  const auto res = in.purge_packet(10, 6);  // purge the partner's packet
  EXPECT_EQ(res.flits_purged, 0);
  ASSERT_EQ(res.dependent_packets.size(), 1u);
  EXPECT_EQ(res.dependent_packets[0], 5u);
}

TEST_F(InputUnitTest, SilentCorruptionDetectedAgainstSideband) {
  // A 3-bit error can alias to a bogus "corrected" word: count it.
  LinkPhit p = phit_of(make_flit(1, 0, 1, 0, 0xAB));
  p.codeword.flip(3);
  p.codeword.flip(9);
  p.codeword.flip(30);
  send(0, std::move(p));
  const auto got = acks(2);
  ASSERT_EQ(got.size(), 1u);
  if (got[0].ok) {
    EXPECT_EQ(in.stats().silent_corruptions, 1u);
  } else {
    EXPECT_EQ(in.occupancy(), 0);
  }
}

}  // namespace
}  // namespace htnoc
