#include "noc/arbiter.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

namespace htnoc {
namespace {

TEST(RoundRobinArbiter, NoRequestsNoGrant) {
  const RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.arbitrate(0b0000), -1);
}

TEST(RoundRobinArbiter, SingleRequesterAlwaysWins) {
  RoundRobinArbiter arb(4);
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t req = std::uint64_t{1} << i;
    EXPECT_EQ(arb.arbitrate(req), i);
    arb.update(i);
  }
}

TEST(RoundRobinArbiter, GrantIsAlwaysARequester) {
  RoundRobinArbiter arb(5);
  for (std::uint64_t req = 1; req < 32; ++req) {
    const int w = arb.arbitrate(req);
    ASSERT_GE(w, 0);
    EXPECT_TRUE((req >> w) & 1);
    arb.update(w);
  }
}

TEST(RoundRobinArbiter, LongRunFairnessUnderFullLoad) {
  RoundRobinArbiter arb(4);
  const std::uint64_t all = 0b1111;
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
    const std::uint64_t req = 0b1001;
    const int w = arb.arbitrate(req);
    arb.update(w);
    ++wins[w];
  }
  EXPECT_GT(wins[0], 400);
  EXPECT_GT(wins[3], 400);
}

TEST(RoundRobinArbiter, RotatesAfterGrant) {
  RoundRobinArbiter arb(3);
  const std::uint64_t all = 0b111;
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
  const std::uint64_t all = 0b111;
  EXPECT_EQ(arb.arbitrate(all), 0);
  EXPECT_EQ(arb.arbitrate(all), 0);  // no update -> same winner
}

TEST(Arbiter, RejectsMismatchedRequestSize) {
  RoundRobinArbiter arb(4);
  const std::vector<std::uint64_t> two_words = {1, 0};
  EXPECT_THROW((void)arb.arbitrate(two_words), ContractViolation);
  // A request line the arbiter does not have is a caller bug too.
  EXPECT_THROW((void)arb.arbitrate(0b10000), ContractViolation);
}

TEST(Arbiter, UpdateRejectsOutOfRange) {
  RoundRobinArbiter arb(4);
  EXPECT_THROW(arb.update(-1), ContractViolation);
  EXPECT_THROW(arb.update(4), ContractViolation);
}

/// The rotating scan the mask search replaces: requester lines visited
/// from the pointer, wrapping once.
int reference_grant(const std::vector<std::uint64_t>& req, int n, int next) {
  for (int i = 0; i < n; ++i) {
    const int idx = (next + i) % n;
    if ((req[static_cast<std::size_t>(idx / 64)] >> (idx % 64)) & 1) return idx;
  }
  return -1;
}

/// An arbiter of `n` inputs whose pointer sits at `next` (set through the
/// public API: a grant to next - 1 moves the pointer to next).
RoundRobinArbiter arbiter_at(int n, int next) {
  RoundRobinArbiter arb(n);
  arb.update((next + n - 1) % n);
  return arb;
}

TEST(RoundRobinArbiter, MaskSearchMatchesRotatingScanExhaustively) {
  for (int n = 1; n <= 12; ++n) {
    for (int next = 0; next < n; ++next) {
      const RoundRobinArbiter arb = arbiter_at(n, next);
      for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
        const std::vector<std::uint64_t> req = {mask};
        ASSERT_EQ(arb.arbitrate(req), reference_grant(req, n, next))
            << "n=" << n << " next=" << next << " mask=" << mask;
      }
    }
  }
}

TEST(RoundRobinArbiter, MaskSearchMatchesRotatingScanOnWideMasks) {
  // Word boundaries and the VA arbiter's widest case (20 ports x 16 VCs).
  std::mt19937_64 rng(0x5EED);
  for (const int n : {63, 64, 65, 128, 320}) {
    const int words = RoundRobinArbiter::words_for(n);
    for (int next = 0; next < n; ++next) {
      const RoundRobinArbiter arb = arbiter_at(n, next);
      for (int trial = 0; trial < 40; ++trial) {
        std::vector<std::uint64_t> req(static_cast<std::size_t>(words), 0);
        const auto set = [&req](int i) {
          req[static_cast<std::size_t>(i / 64)] |= std::uint64_t{1} << (i % 64);
        };
        // Dense, sparse, single-requester and empty masks, so the search
        // wraps across words often.
        switch (trial % 4) {
          case 0:
            for (int i = 0; i < n; ++i) {
              if ((rng() & 1) != 0) set(i);
            }
            break;
          case 1:
            for (int i = 0; i < n; ++i) {
              if (rng() % 16 == 0) set(i);
            }
            break;
          case 2:
            set(static_cast<int>(rng() % static_cast<std::uint64_t>(n)));
            break;
          default:
            break;
        }
        ASSERT_EQ(arb.arbitrate(req), reference_grant(req, n, next))
            << "n=" << n << " next=" << next << " trial=" << trial;
      }
    }
  }
}

}  // namespace
}  // namespace htnoc
