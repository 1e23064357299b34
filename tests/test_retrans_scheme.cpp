// The two retransmission-buffer placements of paper Fig. 5: a shared
// output pool (evaluated as the paper's worst case) vs dedicated per-VC
// slots. The key behavioural difference: a trojan-wedged flit exhausts the
// shared pool and blocks the whole port, while per-VC slots confine the
// damage to the victim's VC.
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "traffic/generator.hpp"

namespace htnoc {
namespace {

Flit make_flit(PacketId packet, int seq, int len, VcId vc) {
  Flit f;
  f.packet = packet;
  f.seq = seq;
  f.length = len;
  f.vc = vc;
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

TEST(RetransScheme, PerVcCapacityIsPerVc) {
  NocConfig cfg;
  cfg.retrans_scheme = RetransmissionScheme::kPerVcBuffer;
  cfg.retrans_per_vc_depth = 2;
  Link link;
  OutputUnit out(cfg);
  out.connect(&link);
  EXPECT_EQ(out.total_capacity(), 2 * cfg.vcs_per_port);

  out.allocate_vc(0);
  out.accept(0, make_flit(1, 0, 8, 0), 2);
  out.accept(1, make_flit(1, 1, 8, 0), 3);
  // VC 0 is now full...
  EXPECT_FALSE(out.can_accept(0, TdmDomain::kD1));
  // ...but VC 1 still has room.
  EXPECT_TRUE(out.can_accept(1, TdmDomain::kD1));
  out.allocate_vc(1);
  EXPECT_NO_THROW(out.accept(2, make_flit(2, 0, 1, 1), 4));
}

TEST(RetransScheme, OutputPoolSharedAcrossVcs) {
  NocConfig cfg;  // default kOutputBuffer, depth 4
  Link link;
  OutputUnit out(cfg);
  out.connect(&link);
  out.allocate_vc(0);
  for (int i = 0; i < 4; ++i) out.accept(i, make_flit(1, i, 8, 0), i + 2);
  // The shared pool is exhausted for every VC.
  for (int vc = 0; vc < cfg.vcs_per_port; ++vc) {
    EXPECT_FALSE(out.can_accept(vc, TdmDomain::kD1)) << vc;
  }
}

TEST(RetransScheme, AcceptBeyondPerVcQuotaIsContractViolation) {
  NocConfig cfg;
  cfg.retrans_scheme = RetransmissionScheme::kPerVcBuffer;
  cfg.retrans_per_vc_depth = 1;
  Link link;
  OutputUnit out(cfg);
  out.connect(&link);
  out.allocate_vc(2);
  out.accept(0, make_flit(1, 0, 8, 2), 2);
  EXPECT_THROW(out.accept(1, make_flit(1, 1, 8, 2), 3), ContractViolation);
}

struct BlastRadius {
  std::uint64_t throughput_after = 0;
  int blocked_routers = 0;
};

BlastRadius attack_blast_radius(RetransmissionScheme scheme) {
  sim::SimConfig sc;
  sc.noc.retrans_scheme = scheme;
  sim::AttackSpec a;
  a.link = {4, Direction::kNorth};
  a.tasp.kind = trojan::TargetKind::kDest;
  a.tasp.target_dest = 0;
  a.enable_killsw_at = 1000;
  sc.attacks.push_back(a);
  sc.mode = sim::MitigationMode::kNone;
  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppTrafficModel model(net.geometry(),
                                 traffic::blackscholes_profile());
  traffic::TrafficGenerator::Params gp;
  gp.seed = 3;
  traffic::TrafficGenerator gen(net, model, gp, disp);
  std::uint64_t at_attack = 0;
  for (Cycle c = 0; c < 2500; ++c) {
    gen.step();
    simulator.step();
    if (c == 999) at_attack = gen.stats().packets_delivered;
  }
  BlastRadius out;
  out.throughput_after = gen.stats().packets_delivered - at_attack;
  out.blocked_routers = net.sample_utilization().routers_with_blocked_port;
  return out;
}

TEST(RetransScheme, OutputPoolIsTheWorstCaseUnderAttack) {
  // The paper evaluates the output-buffer placement as the worst case. At
  // chip level the collapse is comparable (the wedge owns the whole
  // request-VC class either way), but the per-VC placement must never be
  // *worse*, and it keeps the reply class's dedicated slots free at the
  // attacked port — the port-level containment the placement buys.
  const BlastRadius pool = attack_blast_radius(RetransmissionScheme::kOutputBuffer);
  const BlastRadius per_vc = attack_blast_radius(RetransmissionScheme::kPerVcBuffer);
  EXPECT_GE(per_vc.throughput_after, pool.throughput_after);
  EXPECT_GT(pool.blocked_routers, 0);
}

TEST(RetransScheme, PerVcKeepsReplySlotsFreeAtAttackedPort) {
  // Deterministic port-level view: wedge the attacked output with request-
  // class flits under both schemes and check whether a reply-class flit
  // could still enter its retransmission buffer.
  for (const auto scheme : {RetransmissionScheme::kOutputBuffer,
                            RetransmissionScheme::kPerVcBuffer}) {
    NocConfig cfg;
    cfg.retrans_scheme = scheme;
    Link link;
    link.set_disabled(true);  // nothing ever leaves: emulate a full wedge
    OutputUnit out(cfg);
    out.connect(&link);
    out.allocate_vc(0);
    out.allocate_vc(1);
    // Fill every request-class slot the scheme allows.
    int i = 0;
    while (out.can_accept(0, TdmDomain::kD1)) {
      out.accept(i, make_flit(1, i, 8, 0), i + 2);
      ++i;
    }
    while (out.can_accept(1, TdmDomain::kD1)) {
      out.accept(i, make_flit(2, i - 2, 8, 1), i + 2);
      ++i;
    }
    const bool reply_slot_free = out.can_accept(3, TdmDomain::kD1);
    if (scheme == RetransmissionScheme::kPerVcBuffer) {
      EXPECT_TRUE(reply_slot_free);
    } else {
      EXPECT_FALSE(reply_slot_free);  // shared pool fully consumed
    }
  }
}

TEST(RetransScheme, BothSchemesDeliverCleanTraffic) {
  for (const auto scheme : {RetransmissionScheme::kOutputBuffer,
                            RetransmissionScheme::kPerVcBuffer}) {
    NocConfig cfg;
    cfg.retrans_scheme = scheme;
    Network net(cfg);
    traffic::DeliveryDispatcher disp;
    disp.install(net);
    traffic::AppTrafficModel model(net.geometry(), traffic::fft_profile());
    traffic::TrafficGenerator::Params gp;
    gp.seed = 9;
    gp.total_requests = 200;
    traffic::TrafficGenerator gen(net, model, gp, disp);
    Cycle c = 0;
    while (!gen.done() && c < 100000) {
      gen.step();
      net.step();
      ++c;
    }
    EXPECT_TRUE(gen.done()) << to_string(scheme);
  }
}

TEST(RetransScheme, SchemeStringsRoundTrip) {
  EXPECT_EQ(to_string(RetransmissionScheme::kOutputBuffer), "output");
  EXPECT_EQ(to_string(RetransmissionScheme::kPerVcBuffer), "per_vc");
  EXPECT_EQ(retransmission_scheme_from_string("output"),
            RetransmissionScheme::kOutputBuffer);
  EXPECT_EQ(retransmission_scheme_from_string("per_vc"),
            RetransmissionScheme::kPerVcBuffer);
  EXPECT_THROW((void)retransmission_scheme_from_string("bogus"),
               ContractViolation);
}

}  // namespace
}  // namespace htnoc
