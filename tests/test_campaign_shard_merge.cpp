// Sharded campaigns: a strided N-way split of a campaign, run as N
// independent CampaignSpec{shard_index, shard_count} processes, must merge
// back into byte-for-byte the summary the unsharded campaign prints —
// across any thread count, through the JSON shard-summary round-trip, and
// with failure dedup grouping repeats of one violation signature.
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "verify/campaign.hpp"
#include "verify/campaign_json.hpp"
#include "verify/shard_merge.hpp"

namespace htnoc {
namespace {

using verify::CampaignResult;
using verify::CampaignSpec;
using verify::CampaignSummary;
using verify::FaultCampaign;
using verify::merge_shards;
using verify::MergeError;
using verify::ShardFailure;

CampaignSpec base_spec(std::uint64_t scenarios) {
  CampaignSpec spec;
  spec.seed = 0x20260807;
  spec.scenarios = scenarios;
  spec.threads = 2;
  return spec;
}

std::vector<CampaignSummary> run_sharded(const CampaignSpec& base,
                                      std::uint64_t shards) {
  std::vector<CampaignSummary> out;
  for (std::uint64_t i = 0; i < shards; ++i) {
    CampaignSpec s = base;
    s.shard_index = i;
    s.shard_count = shards;
    // The JSON round-trip is part of the path under test: shards travel
    // between CI jobs as documents, not in-process structs.
    out.push_back(verify::parse_shard_summary(json::to_string(
        verify::shard_summary_to_json(
            verify::summarize_shard(FaultCampaign(s).run())))));
  }
  return out;
}

TEST(CampaignShardMerge, FourShardMergeMatchesUnshardedBytes) {
  // 30 scenarios: not divisible by 4, so shard sizes differ (8,8,7,7) and
  // the remainder arithmetic is exercised too.
  const CampaignSpec base = base_spec(30);
  const CampaignResult whole = FaultCampaign(base).run();
  const CampaignSummary merged = merge_shards(run_sharded(base, 4));
  EXPECT_EQ(merged.summary_text(), whole.summary_text());
}

TEST(CampaignShardMerge, ShardCountIsAFreeParameter) {
  const CampaignSpec base = base_spec(13);
  const std::string whole = FaultCampaign(base).run().summary_text();
  for (const std::uint64_t shards : {2u, 3u, 5u, 13u}) {
    EXPECT_EQ(merge_shards(run_sharded(base, shards)).summary_text(), whole)
        << shards << " shards";
  }
}

TEST(CampaignShardMerge, ShardSummaryTextCarriesTheShardToken) {
  CampaignSpec s = base_spec(9);
  s.shard_index = 2;
  s.shard_count = 4;
  const CampaignResult r = FaultCampaign(s).run();
  EXPECT_NE(r.summary_text().find(" shard=2/4\n"), std::string::npos)
      << r.summary_text();
  EXPECT_EQ(r.scenarios.size(), 2u);  // 9 = 3+2+2+2 over shards 0..3
  for (const verify::ScenarioResult& sc : r.scenarios) {
    EXPECT_EQ(sc.index % 4, 2u);  // strided partition, global indices
  }
}

TEST(CampaignShardMerge, ShardSpecJsonRoundTrips) {
  const char* doc = R"({
    "seed": "0xBEEF",
    "scenarios": 100,
    "shard_index": 3,
    "shard_count": 8,
    "warmup_cycles": 500
  })";
  const CampaignSpec spec = verify::parse_campaign_spec(doc);
  EXPECT_EQ(spec.shard_index, 3u);
  EXPECT_EQ(spec.shard_count, 8u);
  EXPECT_EQ(spec.warmup_cycles, 500u);

  const std::string canon =
      json::to_string(verify::campaign_spec_to_json(spec));
  const CampaignSpec back = verify::parse_campaign_spec(canon);
  EXPECT_EQ(back.shard_index, spec.shard_index);
  EXPECT_EQ(back.shard_count, spec.shard_count);
  EXPECT_EQ(back.warmup_cycles, spec.warmup_cycles);
  EXPECT_EQ(json::to_string(verify::campaign_spec_to_json(back)), canon);

  EXPECT_THROW(
      (void)verify::parse_campaign_spec(R"({"shard_index": 1})"),
      std::exception);
  EXPECT_THROW(
      (void)verify::parse_campaign_spec(
          R"({"shard_index": 4, "shard_count": 4})"),
      std::exception);
  EXPECT_THROW((void)verify::parse_campaign_spec(R"({"shard_count": 0})"),
               std::exception);
}

TEST(CampaignShardMerge, ReproSpecCarriesWarmupCycles) {
  // A warmed scenario draws from a restricted space, so replaying it from
  // seed+index alone would rebuild the wrong scenario: the repro line must
  // carry warmup_cycles, and cold campaigns must keep their old bytes.
  const std::string cold = verify::format_repro({0xBEEF, 12});
  EXPECT_EQ(cold, "htnoc-campaign-repro seed=0xbeef index=12");
  const std::string warm = verify::format_repro({0xBEEF, 12, 500});
  EXPECT_EQ(warm, "htnoc-campaign-repro seed=0xbeef index=12 warmup=500");

  const auto parsed = verify::parse_repro(warm);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seed, 0xBEEFu);
  EXPECT_EQ(parsed->index, 12u);
  EXPECT_EQ(parsed->warmup, 500u);
  EXPECT_EQ(verify::parse_repro(cold)->warmup, 0u);

  CampaignSpec spec = base_spec(4);
  spec.warmup_cycles = 150;
  const std::string text = FaultCampaign(spec).run().summary_text();
  // Clean campaigns print no FAIL lines, but the merged/unsharded byte
  // contract covers failing ones too: both emitters thread warmup_cycles
  // into every format_repro call (exercised via the signature table below).
  EXPECT_EQ(text.find("warmup="), std::string::npos) << text;
}

TEST(CampaignShardMerge, DedupReportCarriesWarmupInRepro) {
  CampaignSummary m;
  m.seed = 0x5EED;
  m.scenarios = 10;
  m.warmup_cycles = 250;
  ShardFailure f;
  f.index = 3;
  f.descriptor = "warmup=250 mode=lob";
  f.error = "invariant audit failed:";
  f.violation = "KIND=lost packet=7";
  m.failures.push_back(f);
  EXPECT_NE(m.summary_text().find(
                "FAIL htnoc-campaign-repro seed=0x5eed index=3 warmup=250 "),
            std::string::npos)
      << m.summary_text();
  EXPECT_NE(m.signatures_markdown().find("index=3 warmup=250"),
            std::string::npos)
      << m.signatures_markdown();
}

TEST(CampaignShardMerge, MergeRejectsIncoherentShardSets) {
  const CampaignSpec base = base_spec(8);
  std::vector<CampaignSummary> shards = run_sharded(base, 2);

  {
    std::vector<CampaignSummary> missing = {shards[0]};
    EXPECT_THROW((void)merge_shards(missing), MergeError);
  }
  {
    std::vector<CampaignSummary> dup = {shards[0], shards[0]};
    EXPECT_THROW((void)merge_shards(dup), MergeError);
  }
  {
    std::vector<CampaignSummary> mixed = shards;
    mixed[1].seed ^= 1;
    EXPECT_THROW((void)merge_shards(mixed), MergeError);
  }
  {
    std::vector<CampaignSummary> mixed_warmup = shards;
    mixed_warmup[1].warmup_cycles = 500;
    EXPECT_THROW((void)merge_shards(mixed_warmup), MergeError);
  }
  {
    std::vector<CampaignSummary> cancelled = shards;
    cancelled[1].cancelled = true;
    EXPECT_THROW((void)merge_shards(cancelled), MergeError);
  }
  {
    std::vector<CampaignSummary> partial = shards;
    partial[1].scenarios_run -= 1;
    EXPECT_THROW((void)merge_shards(partial), MergeError);
  }
  // Order independence: shards arrive in any order and still merge.
  std::vector<CampaignSummary> reversed = {shards[1], shards[0]};
  EXPECT_EQ(merge_shards(reversed).summary_text(),
            merge_shards(shards).summary_text());
}

TEST(CampaignShardMerge, ViolationSignatureCollapsesDigits) {
  ShardFailure a;
  a.violation = "KIND=lost uid=41 packet=903 at cycle 1204";
  ShardFailure b;
  b.violation = "KIND=lost uid=7 packet=12 at cycle 88";
  ShardFailure c;
  c.violation = "KIND=duplicate uid=41 packet=903 at cycle 1204";
  EXPECT_EQ(verify::violation_signature(a), verify::violation_signature(b));
  EXPECT_NE(verify::violation_signature(a), verify::violation_signature(c));
  EXPECT_EQ(verify::violation_signature(a),
            "KIND=lost uid=# packet=# at cycle #");

  ShardFailure no_violation;
  no_violation.error = "exception: scenario 12 exploded";
  EXPECT_EQ(verify::violation_signature(no_violation),
            "exception: scenario # exploded");
}

TEST(CampaignShardMerge, DedupReportGroupsBySignature) {
  CampaignSummary m;
  m.seed = 0x5EED;
  m.scenarios = 100;
  for (const std::uint64_t idx : {7u, 21u, 50u}) {
    ShardFailure f;
    f.index = idx;
    f.descriptor = "desc-" + std::to_string(idx);
    f.error = "invariant audit failed:";
    f.violation = "KIND=lost packet=" + std::to_string(idx * 13);
    m.failures.push_back(f);
  }
  ShardFailure other;
  other.index = 33;
  other.descriptor = "desc-33";
  other.error = "invariant audit failed:";
  other.violation = "KIND=stuck packet=9";
  m.failures.push_back(other);

  const std::string md = m.signatures_markdown();
  // Two signature groups: the lost-packet trio (lowest index 7 as the
  // representative) and the stuck singleton.
  EXPECT_NE(md.find("| 3 | KIND=lost packet=# |"), std::string::npos) << md;
  EXPECT_NE(md.find("index=7"), std::string::npos) << md;
  EXPECT_EQ(md.find("index=21"), std::string::npos) << md;
  EXPECT_NE(md.find("| 1 | KIND=stuck packet=# |"), std::string::npos) << md;
}

TEST(CampaignShardMerge, ShardedWarmupCampaignMergesToUnshardedBytes) {
  // Sharding composes with snapshot-forking warmup: every shard rebuilds
  // the same warmup blob (pure function of the seed) and the merged
  // verdict still equals the single-process run.
  CampaignSpec base = base_spec(10);
  base.warmup_cycles = 150;
  const std::string whole = FaultCampaign(base).run().summary_text();
  EXPECT_EQ(merge_shards(run_sharded(base, 4)).summary_text(), whole);
}

}  // namespace
}  // namespace htnoc
