// The flit-reordering L-Ob method (paper Sec. I lists it with scrambling,
// inverting and shuffling): a scheduling-only action that holds a flagged
// flit so later flits overtake it. It defeats transmission-order-keyed
// triggers; a content-keyed trojan like TASP is immune — which the tests
// document explicitly.
#include <gtest/gtest.h>

#include "mitigation/lob.hpp"
#include "noc/output_unit.hpp"
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
  f.type = len == 1             ? FlitType::kHeadTail
           : seq == 0           ? FlitType::kHead
           : seq == len - 1     ? FlitType::kTail
                                : FlitType::kBody;
  return f;
}

TEST(Reorder, TransformsAreIdentityOnWires) {
  ObfuscationTag tag;
  tag.method = ObfMethod::kReorder;
  tag.granularity = ObfGranularity::kFlit;
  EXPECT_EQ(obf::apply(0xDEAD, tag), 0xDEADu);
  EXPECT_EQ(obf::undo(0xDEAD, tag), 0xDEADu);
  EXPECT_EQ(obf::undo_penalty_cycles(ObfMethod::kReorder), 0);
  EXPECT_EQ(to_string(ObfMethod::kReorder), "reorder");
}

/// An L-Ob controller that always answers kReorder (for unit-testing the
/// output unit's scheduling behaviour).
class AlwaysReorder final : public LObController {
 public:
  ObfuscationTag plan(Cycle, const Flit&, int, bool, bool) override {
    ObfuscationTag t;
    t.method = fired_ ? ObfMethod::kNone : ObfMethod::kReorder;
    fired_ = true;
    return t;
  }
  void on_ack(Cycle, const Flit&, const ObfuscationTag&) override {}
  void on_nack(Cycle, const Flit&, const ObfuscationTag&) override {}

 private:
  bool fired_ = false;
};

TEST(Reorder, LaterFlitOvertakesHeldFlit) {
  NocConfig cfg;
  Link link;
  OutputUnit out(cfg);
  out.connect(&link);
  AlwaysReorder lob;
  out.set_lob(&lob);

  out.allocate_vc(0);
  out.allocate_vc(1);
  out.accept(0, make_flit(1, 0, 1, 0), 1);  // victim: reorder-held
  out.accept(0, make_flit(2, 0, 1, 1), 1);  // bystander
  out.step_lt(1);  // victim chosen, held for kReorderHold cycles
  std::vector<LinkPhit> arr;
  link.drain_arrivals(2, arr);
  EXPECT_TRUE(arr.empty());
  EXPECT_EQ(out.stats().reorder_holds, 1u);
  out.step_lt(2);  // bystander goes first
  link.drain_arrivals(3, arr);
  ASSERT_EQ(arr.size(), 1u);
  EXPECT_EQ(arr[0].flit.packet, 2u);
  // Victim transmits after the hold expires, plain.
  out.step_lt(1 + OutputUnit::kReorderHold);
  arr.clear();
  link.drain_arrivals(2 + OutputUnit::kReorderHold, arr);
  ASSERT_EQ(arr.size(), 1u);
  EXPECT_EQ(arr[0].flit.packet, 1u);
  EXPECT_FALSE(arr[0].obf.active());
}

TEST(Reorder, ControllerAdvancesPastReorderWithoutNack) {
  mitigation::LObParams params;
  params.sequence = {{ObfMethod::kReorder, ObfGranularity::kFlit},
                     {ObfMethod::kInvert, ObfGranularity::kHeader}};
  mitigation::LObController lob(params);
  Flit f = make_flit(1, 0, 1, 0);
  f.src_router = 0;
  f.dest_router = 5;
  const ObfuscationTag first = lob.plan(10, f, 2, true, false);
  EXPECT_EQ(first.method, ObfMethod::kReorder);
  // No NACK arrives for a reorder (nothing was transmitted); the next plan
  // must already be the next method.
  const ObfuscationTag second = lob.plan(13, f, 2, true, false);
  EXPECT_EQ(second.method, ObfMethod::kInvert);
}

TEST(Reorder, ContentKeyedTaspIsImmuneButWireMethodsStillWin) {
  // End-to-end: with reorder FIRST in the sequence, the victim flit is
  // delayed, retried plain, struck again, and finally escapes via invert —
  // the workload still completes. Documents that reordering alone cannot
  // defeat a DPI trojan (it keys on content, not order).
  sim::SimConfig sc;
  sc.mode = sim::MitigationMode::kLOb;
  sc.lob.sequence = {{ObfMethod::kReorder, ObfGranularity::kFlit},
                     {ObfMethod::kInvert, ObfGranularity::kHeader},
                     {ObfMethod::kShuffle, ObfGranularity::kHeader},
                     {ObfMethod::kScramble, ObfGranularity::kFlit}};
  sim::AttackSpec a;
  a.link = {4, Direction::kNorth};
  a.tasp.kind = trojan::TargetKind::kDest;
  a.tasp.target_dest = 0;
  a.enable_killsw_at = 500;
  sc.attacks.push_back(a);
  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppTrafficModel model(net.geometry(),
                                 traffic::blackscholes_profile());
  traffic::TrafficGenerator::Params gp;
  gp.seed = 19;
  gp.total_requests = 600;
  traffic::TrafficGenerator gen(net, model, gp, disp);
  Cycle c = 0;
  while (!gen.done() && c < 400000) {
    gen.step();
    simulator.step();
    ++c;
  }
  EXPECT_TRUE(gen.done());
  const auto& out =
      net.router(4).output(direction_port(Direction::kNorth));
  EXPECT_GT(out.stats().reorder_holds, 0u);     // reorder was tried...
  EXPECT_GT(simulator.tasp(0).stats().injections,
            out.stats().reorder_holds);         // ...and did not stop TASP
  EXPECT_GT(simulator
                .lob(4, direction_port(Direction::kNorth))
                .stats()
                .successes,
            0u);                                // wire methods did
}

}  // namespace
}  // namespace htnoc
