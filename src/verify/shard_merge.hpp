// Campaign summaries, and merging sharded fault-campaign runs back into one
// verdict.
//
// CampaignSummary is the portable distillation of a campaign run: its
// totals and its failing scenarios. summarize_shard() builds one from a
// CampaignResult (CampaignResult::summary_text() is its summary_text()),
// the JSON round-trip below carries it between processes, and
// merge_shards() recombines a campaign split over N processes
// (CampaignSpec::shard_index/shard_count) into the summary of shard 0 of 1,
// after validating that the N documents really are the complete,
// compatible shard set of one campaign. Its summary_text() is then
// byte-identical to that of the same campaign run unsharded in a single
// process. That byte equality is the CI contract: the sharded-soak
// workflow `cmp`s the merged summary against a single-process run on every
// PR.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "verify/campaign.hpp"

namespace htnoc::verify {

/// Shard summaries passed to merge_shards() are inconsistent: wrong count,
/// mixed campaigns, duplicate/missing shard indices, or a cancelled shard.
class MergeError : public std::runtime_error {
 public:
  explicit MergeError(const std::string& what) : std::runtime_error(what) {}
};

/// One failing scenario, as carried across the shard boundary. `error` is
/// the first line of the scenario's error text (what summary_text prints
/// under the FAIL line); `violation` is the line after it — the first
/// concrete violation — which the markdown tables show and which drives
/// failure deduplication.
struct ShardFailure {
  std::uint64_t index = 0;  ///< Global scenario index.
  std::string descriptor;
  std::string error;
  std::string violation;
};

/// The portable distillation of a campaign run: one shard's, or a whole
/// campaign's (shard 0 of 1, unsharded or merged).
struct CampaignSummary {
  std::uint64_t seed = 0;
  std::uint64_t scenarios = 0;  ///< Whole-campaign total, not this shard's.
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 1;
  std::uint64_t scenarios_run = 0;  ///< This shard's local count.
  Cycle warmup_cycles = 0;
  bool cancelled = false;
  std::uint64_t delivered = 0;
  std::uint64_t purged = 0;
  std::uint64_t audits = 0;
  std::uint64_t flits_tracked = 0;
  std::vector<ShardFailure> failures;  ///< Ascending global index.

  /// Deterministic plain text: totals, then each failing scenario with its
  /// repro spec. A shard's names the shard; a merged shard set's is
  /// byte-identical to the unsharded run's.
  [[nodiscard]] std::string summary_text() const;
  /// Markdown for CI job summaries: the totals table, then one row per
  /// failing scenario (the first 50).
  [[nodiscard]] std::string failures_markdown() const;
  /// Markdown for CI job summaries: the totals table, then the
  /// deduplicated failure table (one row per distinct violation signature,
  /// with a repro spec for its lowest-index representative).
  [[nodiscard]] std::string signatures_markdown() const;
};

[[nodiscard]] CampaignSummary summarize_shard(const CampaignResult& result);

[[nodiscard]] json::Value shard_summary_to_json(const CampaignSummary& s);
/// Throws MergeError on malformed documents.
[[nodiscard]] CampaignSummary shard_summary_from_json(const json::Value& doc);
[[nodiscard]] CampaignSummary parse_shard_summary(const std::string& text);

/// Merge a complete shard set (any order) into the summary of the whole
/// campaign. Throws MergeError unless the summaries share one (seed,
/// scenarios, shard_count), cover shard indices 0..N-1 exactly once, none
/// was cancelled, and the local counts sum to the campaign total.
[[nodiscard]] CampaignSummary merge_shards(
    const std::vector<CampaignSummary>& shards);

/// Deduplication key for a failure: its first violation line with every
/// digit run collapsed to '#', so the same invariant breach at different
/// cycles/packets/routers maps to one signature.
[[nodiscard]] std::string violation_signature(const ShardFailure& f);

}  // namespace htnoc::verify
