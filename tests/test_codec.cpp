// The link codec (CodecDispatch) and, more importantly, the interplay between
// the error-control scheme and the trojan's payload design: a TASP is
// tuned to its link's ECC, and mis-tuning flips the attack's effect
// between denial-of-service and silent corruption.
#include "ecc/codec.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "traffic/generator.hpp"
#include "trojan/tasp.hpp"

namespace htnoc::ecc {
namespace {

TEST(Codec, FactoryReturnsNamedSchemes) {
  EXPECT_EQ(to_string(CodecDispatch(EccScheme::kSecded).scheme()), "secded");
  EXPECT_EQ(to_string(CodecDispatch(EccScheme::kParity).scheme()), "parity");
  EXPECT_EQ(to_string(CodecDispatch(EccScheme::kNone).scheme()), "none");
  EXPECT_EQ(CodecDispatch(EccScheme::kSecded).used_wires(), 72u);
  EXPECT_EQ(CodecDispatch(EccScheme::kParity).used_wires(), 65u);
  EXPECT_EQ(CodecDispatch(EccScheme::kNone).used_wires(), 64u);
}

class CodecRoundTrip : public ::testing::TestWithParam<EccScheme> {};

TEST_P(CodecRoundTrip, CleanEncodeDecode) {
  const CodecDispatch codec(GetParam());
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t d = rng.next_u64();
    const Codeword72 cw = codec.encode(d);
    const DecodeResult r = codec.decode(cw);
    EXPECT_EQ(r.status, DecodeStatus::kClean);
    EXPECT_EQ(r.data, d);
    EXPECT_EQ(codec.extract_data(cw), d);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, CodecRoundTrip,
                         ::testing::Values(EccScheme::kSecded,
                                           EccScheme::kParity,
                                           EccScheme::kNone));

TEST(Codec, ParityDetectsOddErrorsOnly) {
  const CodecDispatch codec(EccScheme::kParity);
  const std::uint64_t d = 0x0123456789ABCDEFULL;
  Codeword72 one = codec.encode(d);
  one.flip(7);
  EXPECT_TRUE(needs_retransmission(codec.decode(one).status));

  Codeword72 two = codec.encode(d);
  two.flip(7);
  two.flip(40);
  const DecodeResult r = codec.decode(two);
  EXPECT_EQ(r.status, DecodeStatus::kClean);  // even-weight: invisible
  EXPECT_NE(r.data, d);                       // ...and corrupt
}

TEST(Codec, ParityBitItselfIsCovered) {
  const CodecDispatch codec(EccScheme::kParity);
  Codeword72 cw = codec.encode(0xAA);
  cw.flip(64);
  EXPECT_TRUE(needs_retransmission(codec.decode(cw).status));
}

TEST(Codec, NoneNeverDetectsAnything) {
  const CodecDispatch codec(EccScheme::kNone);
  Codeword72 cw = codec.encode(0xFFFF);
  cw.flip(0);
  cw.flip(1);
  cw.flip(2);
  EXPECT_EQ(codec.decode(cw).status, DecodeStatus::kClean);
}

TEST(Codec, SchemeStringsRoundTrip) {
  for (const auto s : {EccScheme::kSecded, EccScheme::kParity, EccScheme::kNone}) {
    EXPECT_EQ(ecc_scheme_from_string(to_string(s)), s);
  }
  EXPECT_THROW((void)ecc_scheme_from_string("crc"), ContractViolation);
}

// --- trojan / ECC interplay, end to end ---

struct SchemeOutcome {
  std::uint64_t delivered_after = 0;
  std::uint64_t sdc = 0;
  int blocked = 0;
};

SchemeOutcome run_scheme(EccScheme link_ecc, trojan::PayloadPattern pattern) {
  sim::SimConfig sc;
  sc.noc.ecc_scheme = link_ecc;
  sc.mode = sim::MitigationMode::kNone;
  sim::AttackSpec a;
  a.link = {4, Direction::kNorth};
  a.tasp.kind = trojan::TargetKind::kDest;
  a.tasp.target_dest = 0;
  a.tasp.ecc = link_ecc;  // attacker knows the code
  a.tasp.pattern = pattern;
  a.enable_killsw_at = 800;
  sc.attacks.push_back(a);
  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppTrafficModel model(net.geometry(),
                                 traffic::blackscholes_profile());
  traffic::TrafficGenerator::Params gp;
  gp.seed = 51;
  traffic::TrafficGenerator gen(net, model, gp, disp);
  std::uint64_t at_attack = 0;
  for (Cycle c = 0; c < 2000; ++c) {
    gen.step();
    simulator.step();
    if (c == 799) at_attack = gen.stats().packets_delivered;
  }
  SchemeOutcome out;
  out.delivered_after = gen.stats().packets_delivered - at_attack;
  for (RouterId r = 0; r < 16; ++r) {
    for (int p = 0; p < net.router(r).num_ports(); ++p) {
      out.sdc += net.router(r).input(p).stats().silent_corruptions;
    }
  }
  out.blocked = net.sample_utilization().routers_with_blocked_port;
  return out;
}

TEST(CodecInterplay, SecdedPlusTwoBitPayloadIsTheDos) {
  const SchemeOutcome o =
      run_scheme(EccScheme::kSecded, trojan::PayloadPattern::kDoubleDetectable);
  EXPECT_GT(o.blocked, 8);
  EXPECT_EQ(o.sdc, 0u);
}

TEST(CodecInterplay, ParityPlusTwoBitPayloadIsSilentCorruptionNotDos) {
  // The SECDED-tuned payload (even weight) is invisible to parity: packets
  // flow, data rots.
  const SchemeOutcome o =
      run_scheme(EccScheme::kParity, trojan::PayloadPattern::kDoubleDetectable);
  EXPECT_LE(o.blocked, 2);
  EXPECT_GT(o.sdc, 10u);
  EXPECT_GT(o.delivered_after, 500u);  // traffic keeps moving
}

TEST(CodecInterplay, ParityPlusSingleBitPayloadIsTheDos) {
  // Against parity (which corrects nothing), one flipped bit per sighting
  // already forces endless retransmission.
  const SchemeOutcome o = run_scheme(EccScheme::kParity,
                                     trojan::PayloadPattern::kSingleCorrectable);
  EXPECT_GT(o.blocked, 8);
}

TEST(CodecInterplay, SecdedAbsorbsSingleBitPayload) {
  const SchemeOutcome o = run_scheme(EccScheme::kSecded,
                                     trojan::PayloadPattern::kSingleCorrectable);
  EXPECT_LE(o.blocked, 2);
  EXPECT_EQ(o.sdc, 0u);  // every strike corrected inline
}

TEST(CodecInterplay, NoEccMeansPureSilentCorruption) {
  const SchemeOutcome o =
      run_scheme(EccScheme::kNone, trojan::PayloadPattern::kDoubleDetectable);
  EXPECT_LE(o.blocked, 2);
  EXPECT_GT(o.sdc, 10u);
}

TEST(CodecInterplay, CleanTrafficDeliversUnderEveryScheme) {
  for (const auto scheme :
       {EccScheme::kSecded, EccScheme::kParity, EccScheme::kNone}) {
    NocConfig cfg;
    cfg.ecc_scheme = scheme;
    Network net(cfg);
    traffic::DeliveryDispatcher disp;
    disp.install(net);
    traffic::AppTrafficModel model(net.geometry(), traffic::fft_profile());
    traffic::TrafficGenerator::Params gp;
    gp.seed = 52;
    gp.total_requests = 150;
    traffic::TrafficGenerator gen(net, model, gp, disp);
    Cycle c = 0;
    while (!gen.done() && c < 100000) {
      gen.step();
      net.step();
      ++c;
    }
    EXPECT_TRUE(gen.done()) << to_string(scheme);
    EXPECT_EQ(net.check_invariants(), "") << to_string(scheme);
  }
}

}  // namespace
}  // namespace htnoc::ecc
