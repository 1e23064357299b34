#include "mitigation/bist.hpp"

#include <gtest/gtest.h>

#include "trojan/tasp.hpp"

namespace htnoc::mitigation {
namespace {

TEST(Bist, CleanLinkReportsNothing) {
  Link l;
  const BistReport r = bist_scan(l);
  EXPECT_FALSE(r.permanent_fault_found);
  EXPECT_TRUE(r.stuck_wires.empty());
}

TEST(Bist, FindsStuckAtOne) {
  Link l;
  l.attach_injector(std::make_shared<PermanentFaultInjector>(
      std::map<unsigned, bool>{{17, true}}));
  const BistReport r = bist_scan(l);
  ASSERT_TRUE(r.permanent_fault_found);
  ASSERT_EQ(r.stuck_wires.size(), 1u);
  EXPECT_EQ(r.stuck_wires[0], 17u);
}

TEST(Bist, FindsStuckAtZero) {
  Link l;
  l.attach_injector(std::make_shared<PermanentFaultInjector>(
      std::map<unsigned, bool>{{64, false}}));
  const BistReport r = bist_scan(l);
  ASSERT_TRUE(r.permanent_fault_found);
  EXPECT_EQ(r.stuck_wires[0], 64u);
}

TEST(Bist, FindsMultipleStuckWires) {
  Link l;
  l.attach_injector(std::make_shared<PermanentFaultInjector>(
      std::map<unsigned, bool>{{0, true}, {35, false}, {71, true}}));
  const BistReport r = bist_scan(l);
  EXPECT_EQ(r.stuck_wires.size(), 3u);
}

TEST(Bist, TrojanStaysInvisible) {
  // The paper's core detection dilemma: a kill-switch-guarded trojan never
  // answers logic testing, so BIST comes back clean on an infected link.
  Link l;
  trojan::TaspParams p;
  p.kind = trojan::TargetKind::kDest;
  p.target_dest = 0;
  auto t = std::make_shared<trojan::Tasp>(p);
  t->set_kill_switch(true);
  l.attach_injector(t);
  const BistReport r = bist_scan(l);
  EXPECT_FALSE(r.permanent_fault_found);
}

TEST(Bist, TrojanPlusPermanentFaultStillLocatesTheWire) {
  Link l;
  l.attach_injector(std::make_shared<PermanentFaultInjector>(
      std::map<unsigned, bool>{{9, true}}));
  trojan::TaspParams p;
  auto t = std::make_shared<trojan::Tasp>(p);
  t->set_kill_switch(true);
  l.attach_injector(t);
  const BistReport r = bist_scan(l);
  ASSERT_TRUE(r.permanent_fault_found);
  EXPECT_EQ(r.stuck_wires[0], 9u);
}

}  // namespace
}  // namespace htnoc::mitigation
