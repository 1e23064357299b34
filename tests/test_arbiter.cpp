#include "noc/arbiter.hpp"

#include <gtest/gtest.h>

#include <map>

namespace htnoc {
namespace {

TEST(RoundRobinArbiter, NoRequestsNoGrant) {
  const RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.arbitrate({false, false, false, false}), -1);
}

TEST(RoundRobinArbiter, SingleRequesterAlwaysWins) {
  RoundRobinArbiter arb(4);
  for (int i = 0; i < 4; ++i) {
    std::vector<bool> req(4, false);
    req[static_cast<std::size_t>(i)] = true;
    EXPECT_EQ(arb.arbitrate(req), i);
    arb.update(i);
  }
}

TEST(RoundRobinArbiter, GrantIsAlwaysARequester) {
  RoundRobinArbiter arb(5);
  for (int mask = 1; mask < 32; ++mask) {
    std::vector<bool> req(5);
    for (int i = 0; i < 5; ++i) req[static_cast<std::size_t>(i)] = (mask >> i) & 1;
    const int w = arb.arbitrate(req);
    ASSERT_GE(w, 0);
    EXPECT_TRUE(req[static_cast<std::size_t>(w)]);
    arb.update(w);
  }
}

TEST(RoundRobinArbiter, LongRunFairnessUnderFullLoad) {
  RoundRobinArbiter arb(4);
  const std::vector<bool> all(4, true);
  std::map<int, int> wins;
  for (int i = 0; i < 4000; ++i) {
    const int w = arb.arbitrate(all);
    arb.update(w);
    ++wins[w];
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(wins[i], 1000) << "input " << i;
  }
}

TEST(RoundRobinArbiter, NoStarvationWithAsymmetricLoad) {
  // Input 0 requests always; input 3 requests every cycle too; both must
  // make progress.
  RoundRobinArbiter arb(4);
  std::map<int, int> wins;
  for (int i = 0; i < 1000; ++i) {
    const std::vector<bool> req = {true, false, false, true};
    const int w = arb.arbitrate(req);
    arb.update(w);
    ++wins[w];
  }
  EXPECT_GT(wins[0], 400);
  EXPECT_GT(wins[3], 400);
}

TEST(RoundRobinArbiter, RotatesAfterGrant) {
  RoundRobinArbiter arb(3);
  const std::vector<bool> all(3, true);
  EXPECT_EQ(arb.arbitrate(all), 0);
  arb.update(0);
  EXPECT_EQ(arb.arbitrate(all), 1);
  arb.update(1);
  EXPECT_EQ(arb.arbitrate(all), 2);
  arb.update(2);
  EXPECT_EQ(arb.arbitrate(all), 0);
}

TEST(RoundRobinArbiter, ArbitrateWithoutUpdateKeepsPriority) {
  RoundRobinArbiter arb(3);
  const std::vector<bool> all(3, true);
  EXPECT_EQ(arb.arbitrate(all), 0);
  EXPECT_EQ(arb.arbitrate(all), 0);  // no update -> same winner
}

TEST(Arbiter, RejectsMismatchedRequestSize) {
  RoundRobinArbiter arb(4);
  EXPECT_THROW((void)arb.arbitrate({true, false}), ContractViolation);
}

TEST(Arbiter, UpdateRejectsOutOfRange) {
  RoundRobinArbiter arb(4);
  EXPECT_THROW(arb.update(-1), ContractViolation);
  EXPECT_THROW(arb.update(4), ContractViolation);
}

}  // namespace
}  // namespace htnoc
