#include "mitigation/threat_detector.hpp"

#include <gtest/gtest.h>

#include "trojan/tasp.hpp"

namespace htnoc::mitigation {
namespace {

FaultObservation make_obs(Cycle now, int port, PacketId packet, int seq,
                          std::uint8_t syndrome) {
  FaultObservation obs;
  obs.now = now;
  obs.receiver = 2;
  obs.in_port = port;
  obs.flit.packet = packet;
  obs.flit.seq = seq;
  obs.ecc.status = ecc::DecodeStatus::kDetectedDouble;
  obs.ecc.syndrome = syndrome;
  return obs;
}

TEST(ThreatDetector, FirstFaultIsPlainRetransmit) {
  RouterThreatDetector det;
  const NackAdvice a = det.on_uncorrectable(make_obs(10, 0, 1, 0, 0x21));
  EXPECT_FALSE(a.escalate_obfuscation);
  EXPECT_FALSE(a.request_bist);
  EXPECT_EQ(det.classification(0), LinkThreatClass::kTransient);
}

TEST(ThreatDetector, RepeatFaultEscalatesAndDispatchesBist) {
  RouterThreatDetector det;
  (void)det.on_uncorrectable(make_obs(10, 0, 1, 0, 0x21));
  const NackAdvice a = det.on_uncorrectable(make_obs(14, 0, 1, 0, 0x33));
  EXPECT_TRUE(a.escalate_obfuscation);
  EXPECT_TRUE(a.request_bist);
  EXPECT_EQ(det.classification(0), LinkThreatClass::kSuspect);
  EXPECT_EQ(det.port_stats(0).bist_scans, 1u);
}

TEST(ThreatDetector, CleanBistPlusRepeatsClassifiesTrojan) {
  Link link;  // no permanent faults attached
  ThreatDetectorParams params;
  params.bist_latency = 4;
  RouterThreatDetector det(params);
  det.set_port_link(0, &link);

  // Two flits each faulting repeatedly.
  (void)det.on_uncorrectable(make_obs(10, 0, 1, 0, 0x21));
  (void)det.on_uncorrectable(make_obs(13, 0, 1, 0, 0x33));
  (void)det.on_uncorrectable(make_obs(16, 0, 2, 0, 0x21));
  (void)det.on_uncorrectable(make_obs(19, 0, 2, 0, 0x45));
  // BIST completes after the latency elapses; next observation picks it up.
  (void)det.on_uncorrectable(make_obs(30, 0, 2, 0, 0x50));
  EXPECT_EQ(det.classification(0), LinkThreatClass::kTrojan);
}

TEST(ThreatDetector, StuckWireClassifiesPermanent) {
  Link link;
  link.attach_injector(std::make_shared<PermanentFaultInjector>(
      std::map<unsigned, bool>{{5, true}}));
  ThreatDetectorParams params;
  params.bist_latency = 4;
  RouterThreatDetector det(params);
  det.set_port_link(0, &link);

  (void)det.on_uncorrectable(make_obs(10, 0, 1, 0, 0x05));
  (void)det.on_uncorrectable(make_obs(13, 0, 1, 0, 0x05));
  (void)det.on_uncorrectable(make_obs(30, 0, 2, 0, 0x05));
  EXPECT_EQ(det.classification(0), LinkThreatClass::kPermanent);
}

TEST(ThreatDetector, ClassificationCallbackFiresOnce) {
  Link link;
  ThreatDetectorParams params;
  params.bist_latency = 2;
  RouterThreatDetector det(params);
  det.set_port_link(0, &link);
  int calls = 0;
  LinkThreatClass last = LinkThreatClass::kClean;
  det.set_classification_callback([&](int port, LinkThreatClass cls) {
    ++calls;
    last = cls;
    EXPECT_EQ(port, 0);
  });
  for (int i = 0; i < 6; ++i) {
    (void)det.on_uncorrectable(
        make_obs(10 + static_cast<Cycle>(i) * 3, 0, 1 + (i / 2), i % 1, 0x21));
  }
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(last, LinkThreatClass::kTrojan);
}

TEST(ThreatDetector, PortsTrackedIndependently) {
  RouterThreatDetector det;
  (void)det.on_uncorrectable(make_obs(10, 0, 1, 0, 0x21));
  (void)det.on_uncorrectable(make_obs(11, 1, 2, 0, 0x21));
  EXPECT_EQ(det.port_stats(0).uncorrectable, 1u);
  EXPECT_EQ(det.port_stats(1).uncorrectable, 1u);
  EXPECT_EQ(det.port_stats(2).uncorrectable, 0u);
  EXPECT_EQ(det.classification(3), LinkThreatClass::kClean);
}

TEST(ThreatDetector, CorrectedFaultsCountedButBenign) {
  RouterThreatDetector det;
  FaultObservation obs = make_obs(5, 0, 1, 0, 0x07);
  obs.ecc.status = ecc::DecodeStatus::kCorrectedSingle;
  det.on_corrected(obs);
  det.on_corrected(obs);
  EXPECT_EQ(det.port_stats(0).corrected, 2u);
  EXPECT_EQ(det.classification(0), LinkThreatClass::kTransient);
}

TEST(ThreatDetector, HistoryCamEvictsOldEntries) {
  ThreatDetectorParams params;
  params.history_depth = 4;
  RouterThreatDetector det(params);
  // 8 distinct flits fault once each; the CAM holds only 4, so a repeat of
  // flit 1 after eviction looks like a first fault again (no escalation).
  for (PacketId p = 1; p <= 8; ++p) {
    (void)det.on_uncorrectable(make_obs(p * 2, 0, p, 0, 0x21));
  }
  const NackAdvice a = det.on_uncorrectable(make_obs(100, 0, 1, 0, 0x33));
  EXPECT_FALSE(a.escalate_obfuscation);
}

TEST(ThreatDetector, EscalateThresholdConfigurable) {
  ThreatDetectorParams params;
  params.escalate_after = 3;
  RouterThreatDetector det(params);
  (void)det.on_uncorrectable(make_obs(1, 0, 1, 0, 0x21));
  EXPECT_FALSE(det.on_uncorrectable(make_obs(4, 0, 1, 0, 0x22))
                   .escalate_obfuscation);
  EXPECT_TRUE(det.on_uncorrectable(make_obs(7, 0, 1, 0, 0x23))
                  .escalate_obfuscation);
}

TEST(ThreatDetector, SyndromeReuseFlagsSmallPayloadTrojans) {
  // Paper Sec. III-B: faults injected frequently onto the same wires draw
  // attention. A trojan with a tiny payload counter strikes one distinct
  // flit at a time (no per-flit repetition!) but reuses wire pairs; the
  // syndrome-frequency sketch catches it.
  Link link;  // clean: BIST will find nothing
  ThreatDetectorParams params;
  params.bist_latency = 2;
  params.escalate_after = 2;
  RouterThreatDetector det(params);
  det.set_port_link(0, &link);
  // Distinct packets, each faulting once, always syndrome 0x21 — plus one
  // packet faulting twice so a BIST gets dispatched.
  (void)det.on_uncorrectable(make_obs(1, 0, 100, 0, 0x21));
  (void)det.on_uncorrectable(make_obs(4, 0, 100, 0, 0x21));  // dispatches BIST
  for (PacketId p = 1; p <= 6; ++p) {
    (void)det.on_uncorrectable(make_obs(10 + p * 3, 0, p, 0, 0x21));
  }
  EXPECT_EQ(det.classification(0), LinkThreatClass::kTrojan);
}

TEST(ThreatDetector, VariedSyndromesDoNotTripTheReuseHeuristic) {
  Link link;
  ThreatDetectorParams params;
  params.bist_latency = 2;
  RouterThreatDetector det(params);
  det.set_port_link(0, &link);
  // Single faults on distinct flits with distinct syndromes: transient-like.
  for (PacketId p = 1; p <= 8; ++p) {
    (void)det.on_uncorrectable(
        make_obs(p * 5, 0, p, 0, static_cast<std::uint8_t>(0x10 + p)));
  }
  EXPECT_NE(det.classification(0), LinkThreatClass::kTrojan);
}

TEST(ThreatDetector, ToStringCoversAllClasses) {
  EXPECT_EQ(to_string(LinkThreatClass::kClean), "clean");
  EXPECT_EQ(to_string(LinkThreatClass::kTransient), "transient");
  EXPECT_EQ(to_string(LinkThreatClass::kSuspect), "suspect");
  EXPECT_EQ(to_string(LinkThreatClass::kPermanent), "permanent");
  EXPECT_EQ(to_string(LinkThreatClass::kTrojan), "trojan");
}

}  // namespace
}  // namespace htnoc::mitigation
