// Property tests of the credit-conservation invariant: at every cycle
// boundary, for every (link, VC), buffer_depth = upstream credits + credits
// on the reverse wire + retransmission slots + receiver-buffered flits
// (minus ACK-in-flight overlap). Runs it through load, attacks, mitigation
// and purges.
#include <gtest/gtest.h>

#include <string>

#include "sim/simulator.hpp"
#include "traffic/app_profile.hpp"
#include "traffic/generator.hpp"

namespace htnoc {
namespace {

TEST(Invariants, HoldOnIdleNetwork) {
  NocConfig cfg;
  Network net(cfg);
  EXPECT_EQ(net.check_invariants(), "");
  net.run(20);
  EXPECT_EQ(net.check_invariants(), "");
}

TEST(Invariants, HoldEveryCycleUnderLoad) {
  NocConfig cfg;
  Network net(cfg);
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppTrafficModel model(net.geometry(),
                                 traffic::blackscholes_profile());
  traffic::TrafficGenerator::Params gp;
  gp.seed = 13;
  gp.total_requests = 300;
  traffic::TrafficGenerator gen(net, model, gp, disp);
  Cycle c = 0;
  while (!gen.done() && c < 100000) {
    gen.step();
    net.step();
    ++c;
    ASSERT_EQ(net.check_invariants(), "") << "cycle " << c;
  }
  EXPECT_TRUE(gen.done());
}

class InvariantModeTest
    : public ::testing::TestWithParam<sim::MitigationMode> {};

TEST_P(InvariantModeTest, HoldUnderAttackAndMitigation) {
  sim::SimConfig sc;
  sc.mode = GetParam();
  sim::AttackSpec a;
  a.link = {4, Direction::kNorth};
  a.tasp.kind = trojan::TargetKind::kDest;
  a.tasp.target_dest = 0;
  a.enable_killsw_at = 200;
  sc.attacks.push_back(a);
  sc.reroute_latency = 50;
  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppTrafficModel model(net.geometry(),
                                 traffic::blackscholes_profile());
  traffic::TrafficGenerator::Params gp;
  gp.seed = 14;
  traffic::TrafficGenerator gen(net, model, gp, disp);
  simulator.set_drop_callback([&](PacketId id) { gen.requeue(id); });
  for (Cycle c = 0; c < 2000; ++c) {
    gen.step();
    simulator.step();
    if (c % 7 == 0) {
      ASSERT_EQ(net.check_invariants(), "")
          << "cycle " << c << " mode " << to_string(GetParam());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, InvariantModeTest,
                         ::testing::Values(sim::MitigationMode::kNone,
                                           sim::MitigationMode::kLOb,
                                           sim::MitigationMode::kReroute));

TEST(Invariants, HoldAfterEveryPurge) {
  NocConfig cfg;
  Network net(cfg);
  std::vector<PacketId> ids;
  for (NodeId s = 0; s < 64; s += 5) {
    PacketInfo info;
    info.id = net.next_packet_id();
    info.src_core = s;
    info.dest_core = static_cast<NodeId>(63 - s);
    info.src_router = net.geometry().router_of_core(info.src_core);
    info.dest_router = net.geometry().router_of_core(info.dest_core);
    info.length = 4;
    if (net.try_inject(info, std::vector<std::uint64_t>(3, s))) {
      ids.push_back(info.id);
    }
    net.run(3);
  }
  for (const PacketId id : ids) {
    (void)net.purge_packet(id);
    ASSERT_EQ(net.check_invariants(), "") << "after purging " << id;
  }
  net.run(100);
  EXPECT_EQ(net.check_invariants(), "");
  EXPECT_TRUE(net.quiescent());
}

TEST(Invariants, HoldUnderTdm) {
  NocConfig cfg;
  cfg.tdm_enabled = true;
  Network net(cfg);
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppTrafficModel m1(net.geometry(), traffic::fft_profile());
  traffic::TrafficGenerator::Params p1;
  p1.seed = 15;
  p1.domain = TdmDomain::kD1;
  p1.total_requests = 150;
  traffic::TrafficGenerator g1(net, m1, p1, disp);
  traffic::AppTrafficModel m2(net.geometry(),
                              traffic::blackscholes_profile());
  traffic::TrafficGenerator::Params p2;
  p2.seed = 16;
  p2.domain = TdmDomain::kD2;
  p2.total_requests = 150;
  traffic::TrafficGenerator g2(net, m2, p2, disp);
  Cycle c = 0;
  while ((!g1.done() || !g2.done()) && c < 100000) {
    g1.step();
    g2.step();
    net.step();
    ++c;
    if (c % 5 == 0) {
      ASSERT_EQ(net.check_invariants(), "") << "cycle " << c;
    }
  }
  EXPECT_TRUE(g1.done());
  EXPECT_TRUE(g2.done());
}

TEST(Invariants, HoldWithPerVcRetransmissionScheme) {
  NocConfig cfg;
  cfg.retrans_scheme = RetransmissionScheme::kPerVcBuffer;
  Network net(cfg);
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppTrafficModel model(net.geometry(), traffic::ferret_profile());
  traffic::TrafficGenerator::Params gp;
  gp.seed = 17;
  gp.total_requests = 200;
  traffic::TrafficGenerator gen(net, model, gp, disp);
  Cycle c = 0;
  while (!gen.done() && c < 100000) {
    gen.step();
    net.step();
    ++c;
    if (c % 5 == 0) {
      ASSERT_EQ(net.check_invariants(), "") << "cycle " << c;
    }
  }
  EXPECT_TRUE(gen.done());
}

TEST(Invariants, CreditCheckNamesHopsInLinkOrder) {
  // One stray credit on a reverse wire breaks its hop's sum. The check
  // names the hop (mesh link, then each core's injection and ejection
  // link) and reports the first broken hop in that order.
  const std::string sum =
      ": credits 4 + wire 1 + slots 0 + buffered 0 - overlap 0 != depth 4";
  {
    Network net(NocConfig{});
    net.link(5, Direction::kNorth).send_credit(0, CreditMsg{1});
    EXPECT_EQ(net.check_invariants(), "r5->N vc1" + sum);
  }
  {
    Network net(NocConfig{});
    net.ni(3).injection_port().link()->send_credit(0, CreditMsg{0});
    EXPECT_EQ(net.check_invariants(), "inj.c3 vc0" + sum);
  }
  {
    Network net(NocConfig{});
    net.ni(3).ejection_port().link()->send_credit(0, CreditMsg{2});
    EXPECT_EQ(net.check_invariants(), "ej.c3 vc2" + sum);
  }
  {
    Network net(NocConfig{});
    net.ni(5).injection_port().link()->send_credit(0, CreditMsg{0});
    net.ni(3).ejection_port().link()->send_credit(0, CreditMsg{0});
    EXPECT_EQ(net.check_invariants().substr(0, 9), "ej.c3 vc0");
    net.link(15, Direction::kNorth).send_credit(0, CreditMsg{0});
    EXPECT_EQ(net.check_invariants().substr(0, 10), "r15->N vc0");
  }
}

/// The credit-check text of hop `from`->`dir` after `cycles` cycles of
/// facesim traffic on `sc`, with one stray credit added on its `vc`. The
/// stray credit breaks only that hop, so the text shows all its terms.
/// `station_hold`: the receiver must hold a flit in its scramble station.
std::string text_with_stray_credit(const sim::SimConfig& sc, Cycle cycles,
                                   RouterId from, Direction dir, VcId vc,
                                   bool station_hold) {
  sim::Simulator simulator(sc);
  Network& net = simulator.network();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppTrafficModel model(net.geometry(),
                                 traffic::profile_by_name("facesim"));
  traffic::TrafficGenerator::Params gp;
  gp.seed = 0x5EED;
  traffic::TrafficGenerator gen(net, model, gp, disp);
  simulator.set_drop_callback([&](PacketId id) { gen.requeue(id); });
  for (Cycle c = 0; c < cycles; ++c) {
    gen.step();
    simulator.step();
  }
  EXPECT_EQ(net.check_invariants(), "");
  // A flit held in the scramble station counts in the input's occupancy
  // but in no VC stream.
  const InputUnit& in = net.router(net.geometry().neighbor(from, dir))
                            .input(direction_port(opposite(dir)));
  int streamed = 0;
  for (int v = 0; v < in.num_vcs(); ++v) streamed += in.vcbuf(v).occupancy;
  EXPECT_EQ(in.occupancy() > streamed, station_hold);
  net.link(from, dir).send_credit(net.now(), CreditMsg{vc});
  return net.check_invariants();
}

TEST(Invariants, CreditTextPinsEveryTerm) {
  // A TASP on r5->E answered by forced-scramble L-Ob: the receiver parks
  // scrambled phits in its station while the sender retransmits. At these
  // cycles the hop has credits on the reverse wire, slots, buffered flits,
  // slots whose flit the receiver already holds (overlap) and a station
  // hold, on vc3 (station on another VC) and on vc2 (station on vc2).
  sim::SimConfig sc;
  sc.mode = sim::MitigationMode::kLOb;
  sc.lob = mitigation::forced_lob_params(ObfMethod::kScramble,
                                         ObfGranularity::kFlit);
  sim::AttackSpec atk;
  atk.link = {5, Direction::kEast};
  atk.tasp.kind = trojan::TargetKind::kDest;
  atk.tasp.target_dest = 6;
  sc.attacks.push_back(atk);
  EXPECT_EQ(text_with_stray_credit(sc, 3724, 5, Direction::kEast, 3, true),
            "r5->E vc3: credits 1 + wire 2 + slots 2 + buffered 1 - overlap 1 "
            "!= depth 4");
  EXPECT_EQ(text_with_stray_credit(sc, 5365, 5, Direction::kEast, 2, true),
            "r5->E vc2: credits 0 + wire 2 + slots 3 + buffered 1 - overlap 1 "
            "!= depth 4");
}

TEST(Invariants, CreditTextPinsPerVcBuffersUnderTdm) {
  sim::SimConfig sc;
  sc.noc.tdm_enabled = true;
  sc.noc.retrans_scheme = RetransmissionScheme::kPerVcBuffer;
  EXPECT_EQ(text_with_stray_credit(sc, 306, 5, Direction::kWest, 1, false),
            "r5->W vc1: credits 1 + wire 2 + slots 2 + buffered 1 - overlap 1 "
            "!= depth 4");
}

TEST(Invariants, GoldenDeterminismLock) {
  // Two identical runs must agree cycle for cycle (bit-reproducibility is a
  // stated design requirement); lock a fingerprint so regressions surface.
  auto fingerprint = []() {
    NocConfig cfg;
    Network net(cfg);
    traffic::DeliveryDispatcher disp;
    disp.install(net);
    traffic::AppTrafficModel model(net.geometry(),
                                   traffic::facesim_profile());
    traffic::TrafficGenerator::Params gp;
    gp.seed = 2025;
    gp.total_requests = 120;
    traffic::TrafficGenerator gen(net, model, gp, disp);
    Cycle c = 0;
    while (!gen.done() && c < 100000) {
      gen.step();
      net.step();
      ++c;
    }
    return std::make_tuple(c, gen.stats().latency_sum,
                           gen.stats().packets_delivered);
  };
  const auto a = fingerprint();
  const auto b = fingerprint();
  EXPECT_EQ(a, b);
  EXPECT_GT(std::get<2>(a), 120u);  // requests + replies
}

}  // namespace
}  // namespace htnoc
