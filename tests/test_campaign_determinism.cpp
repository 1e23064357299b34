// The fault campaign must be a pure function of (seed, scenario count):
// identical summaries at any thread count, and any single scenario
// replayable in isolation from its repro spec. This is what makes the
// "seed + index" minimal repro from a 10k-scenario nightly soak trustworthy.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

#include "verify/campaign.hpp"
#include "verify/campaign_json.hpp"

namespace htnoc::verify {
namespace {

constexpr std::uint64_t kSeed = 42;
constexpr std::size_t kScenarios = 48;

CampaignSpec spec_with_threads(int threads) {
  CampaignSpec spec;
  spec.seed = kSeed;
  spec.scenarios = kScenarios;
  spec.threads = threads;
  return spec;
}

TEST(CampaignDeterminism, SummaryIdenticalAcrossThreadCounts) {
  const CampaignResult one = FaultCampaign(spec_with_threads(1)).run();
  const CampaignResult two = FaultCampaign(spec_with_threads(2)).run();
  const CampaignResult eight = FaultCampaign(spec_with_threads(8)).run();
  EXPECT_EQ(one.summary_text(), two.summary_text());
  EXPECT_EQ(one.summary_text(), eight.summary_text());
  EXPECT_EQ(one.summary_markdown(), eight.summary_markdown());
}

TEST(CampaignDeterminism, ScenariosPassOnCleanBuild) {
  // A clean (non-mutation) build must survive the randomized adversarial
  // scenarios with the auditor armed; this is the in-tree slice of the
  // nightly 10k soak.
  const CampaignResult result = FaultCampaign(spec_with_threads(0)).run();
  EXPECT_EQ(result.failures(), 0u) << result.summary_text();
  ASSERT_EQ(result.scenarios.size(), kScenarios);
  std::size_t audited = 0;
  for (const ScenarioResult& s : result.scenarios) {
    EXPECT_FALSE(s.descriptor.empty());
    if (s.audits > 0) ++audited;
  }
  EXPECT_EQ(audited, kScenarios);
}

TEST(CampaignDeterminism, IsolatedReplayMatchesCampaignSlot) {
  const CampaignResult result = FaultCampaign(spec_with_threads(4)).run();
  const CampaignSpec spec = spec_with_threads(0);
  for (const std::size_t index : {std::size_t{0}, std::size_t{17},
                                  kScenarios - 1}) {
    const ScenarioResult& slot = result.scenarios[index];
    const ScenarioResult replay = FaultCampaign::run_scenario(spec, index);
    EXPECT_EQ(replay.ok, slot.ok) << index;
    EXPECT_EQ(replay.descriptor, slot.descriptor) << index;
    EXPECT_EQ(replay.cycles, slot.cycles) << index;
    EXPECT_EQ(replay.delivered, slot.delivered) << index;
    EXPECT_EQ(replay.purged, slot.purged) << index;
    EXPECT_EQ(replay.flits_tracked, slot.flits_tracked) << index;
    EXPECT_EQ(replay.error, slot.error) << index;
  }
}

TEST(CampaignDeterminism, ScenarioDiversity) {
  // The descriptor string encodes the drawn knobs; across 48 scenarios the
  // generator must exercise attacks, mitigation, and fault injection, not
  // collapse onto one corner of the space.
  const CampaignResult result = FaultCampaign(spec_with_threads(0)).run();
  int with_attack = 0, with_mitigation = 0, with_fault = 0, with_storm = 0;
  for (const ScenarioResult& s : result.scenarios) {
    if (s.descriptor.find("attacks=") != std::string::npos &&
        s.descriptor.find("attacks=0") == std::string::npos) {
      ++with_attack;
    }
    if (s.descriptor.find("mode=lob") != std::string::npos ||
        s.descriptor.find("mode=reroute") != std::string::npos) {
      ++with_mitigation;
    }
    if (s.descriptor.find("transient=0 ") == std::string::npos ||
        s.descriptor.find("perm=0 ") == std::string::npos) {
      ++with_fault;
    }
    if (s.descriptor.find("storms=0") == std::string::npos) ++with_storm;
  }
  EXPECT_GT(with_attack, 5);
  EXPECT_GT(with_mitigation, 5);
  EXPECT_GT(with_fault, 5);
  EXPECT_GT(with_storm, 2);
}

TEST(CampaignDeterminism, ReproSpecRoundTrip) {
  const ReproSpec spec{0xDEADBEEFCAFEull, 421};
  const auto parsed = parse_repro(format_repro(spec));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seed, spec.seed);
  EXPECT_EQ(parsed->index, spec.index);
}

TEST(CampaignDeterminism, ParseReproRejectsGarbage) {
  EXPECT_FALSE(parse_repro("").has_value());
  EXPECT_FALSE(parse_repro("seed=1 index=2").has_value());
  EXPECT_FALSE(parse_repro("htnoc-campaign-repro seed=zz index=1").has_value());
  EXPECT_FALSE(parse_repro("htnoc-campaign-repro seed=0x1").has_value());
}

TEST(CancelDeterminism, CancelledCampaignEqualsShorterCampaign) {
  // Single-threaded campaign with a stop token raised after 3 scenarios:
  // the claimed prefix is exactly [0, k), so the cancelled summary must be
  // byte-identical to an uncancelled k-scenario campaign — and reproducible
  // run over run.
  auto cancelled_run = [] {
    verify::CampaignSpec spec = verify::parse_campaign_spec(R"({
      "seed": "0x5eed", "scenarios": 10, "audit_period": 64})");
    spec.threads = 1;
    auto completed = std::make_shared<std::atomic<std::uint64_t>>(0);
    spec.progress = [completed](std::uint64_t done, std::uint64_t) {
      completed->store(done, std::memory_order_relaxed);
    };
    spec.should_stop = [completed] {
      return completed->load(std::memory_order_relaxed) >= 3;
    };
    return verify::FaultCampaign(spec).run();
  };

  const verify::CampaignResult first = cancelled_run();
  const verify::CampaignResult second = cancelled_run();
  EXPECT_TRUE(first.cancelled);
  EXPECT_EQ(first.scenarios.size(), second.scenarios.size());
  EXPECT_EQ(first.summary_text(), second.summary_text());
  EXPECT_EQ(first.summary_markdown(), second.summary_markdown());

  // Equivalence with the campaign that only ever asked for k scenarios.
  const std::uint64_t k = first.scenarios.size();
  ASSERT_GE(k, 3u);
  ASSERT_LT(k, 10u);
  verify::CampaignSpec shorter = verify::parse_campaign_spec(R"({
    "seed": "0x5eed", "scenarios": 10, "audit_period": 64})");
  shorter.threads = 1;
  shorter.scenarios = k;
  const verify::CampaignResult direct = verify::FaultCampaign(shorter).run();
  EXPECT_FALSE(direct.cancelled);
  EXPECT_EQ(first.summary_text(), direct.summary_text());
  EXPECT_EQ(first.summary_markdown(), direct.summary_markdown());
}

}  // namespace
}  // namespace htnoc::verify
