// Randomized fault campaign: thousands of adversarial scenarios — trojan
// placements, kill-switch toggling mid-flight, transient/permanent fault
// mixes, forced L-Ob methods, purge storms, hotspot migration under attack —
// derived deterministically from a single seed, each run with the invariant
// auditor armed. A failing scenario yields a minimal repro spec
// (seed + scenario index) that replays the exact simulation.
//
// Built on the PR-1 sweep engine's determinism primitives: per-scenario
// seeds come from sweep::derive_run_seed / mix_seed, threads claim work off
// an atomic cursor, and results land in index-addressed slots — so the
// campaign summary is byte-identical at any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "verify/auditor.hpp"

namespace htnoc::verify {

struct CampaignSpec {
  std::uint64_t seed = 1;
  std::uint64_t scenarios = 1000;
  /// Worker threads; <= 0 resolves like SweepRunner ($HTNOC_JOBS, then
  /// hardware concurrency).
  int threads = 0;
  /// Auditor configuration applied to every scenario; `enabled` is forced
  /// on by the campaign (an unaudited campaign proves nothing).
  AuditConfig audit;
  /// Intra-run parallel stepping applied to every scenario (see
  /// NocConfig::step_threads). Not part of the scenario draw: the same
  /// (seed, index) builds the same scenario at any value, so a campaign is
  /// expected to produce a byte-identical summary for any step_threads —
  /// the property equivalence_report() checks.
  int step_threads = 1;
  /// Deterministic sharding: this process runs only the global scenario
  /// indices congruent to `shard_index` mod `shard_count` (a strided
  /// partition, so every shard samples the whole index range). Scenario
  /// draws depend only on (seed, global index) — sharding moves work between
  /// processes without perturbing a single RNG draw, and the shard
  /// summaries merge (verify/shard_merge.hpp) into bytes identical to the
  /// unsharded campaign's summary_text().
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 1;
  /// Snapshot-forking warmup. 0 (the default) leaves the classic campaign
  /// untouched. When > 0, every scenario resumes from one shared snapshot
  /// of a clean default fabric warmed up for this many cycles under
  /// blackscholes traffic (computed once per campaign from `seed` alone,
  /// then restored into each scenario's freshly built — and freshly
  /// attacked — simulator). Warmed scenarios draw from a restricted space:
  /// the substrate is pinned to the snapshot's fabric, but attacks, faults,
  /// mitigation modes and mid-run events still randomize, now against a
  /// network already full of in-flight traffic.
  Cycle warmup_cycles = 0;
  /// Fabric kinds each scenario may draw from. Empty (the default) means
  /// every scenario runs the paper's 4x4 concentrated mesh AND the draw
  /// sequence stays exactly what it was before this knob existed, so the
  /// default campaign's summary is byte-identical to historical recordings
  /// (locked by tests/test_campaign_topology.cpp). Non-empty adds one draw
  /// per scenario picking a kind from this list (plus a size draw for
  /// kMesh), uniformly.
  std::vector<TopologyKind> topologies;
  /// Invoked after each scenario finishes with (scenarios completed so far,
  /// total scenarios). Called from worker threads, possibly concurrently —
  /// the callee synchronizes. Observational only; results are byte-identical
  /// with or without it. Not part of the spec document (campaign_json.cpp
  /// never serializes it) and ignored by comparisons.
  std::function<void(std::uint64_t, std::uint64_t)> progress = nullptr;
  /// Cooperative stop token, polled before each scenario is claimed
  /// (scenario granularity: a scenario in flight always finishes whole).
  /// When it returns true the campaign ends early: the claimed prefix of
  /// scenario indices completes and the result carries `cancelled == true`
  /// with `scenarios` truncated to that prefix. Must be thread-safe
  /// (typically an std::atomic<bool> load). Like `progress`, an execution
  /// hook, not a scenario parameter: never serialized by campaign_json.cpp
  /// and it cannot perturb the draw sequence — a campaign cancelled after
  /// k scenarios summarizes byte-identically to a k-scenario campaign of
  /// the same seed. perfbench's campaign_fork workload uses both hooks to
  /// time the warmup set-up apart from the scenarios.
  std::function<bool()> should_stop = nullptr;
};

/// Everything needed to replay one failing scenario exactly. A scenario
/// from a snapshot-forking campaign draws from a restricted space, so its
/// repro line must carry the campaign's warmup_cycles too.
struct ReproSpec {
  std::uint64_t seed = 0;
  std::uint64_t index = 0;
  Cycle warmup = 0;
};

/// One line: "htnoc-campaign-repro seed=0x<hex> index=<dec>", plus
/// " warmup=<dec>" when the campaign forked from a warmup snapshot.
[[nodiscard]] std::string format_repro(const ReproSpec& r);
/// Parse a format_repro() line (leading/trailing text tolerated per field).
[[nodiscard]] std::optional<ReproSpec> parse_repro(const std::string& line);

struct ScenarioResult {
  std::uint64_t index = 0;
  bool ok = false;
  /// Auditor report or exception text when ok == false.
  std::string error;
  /// Compact human-readable description of the randomized scenario.
  std::string descriptor;
  Cycle cycles = 0;
  std::uint64_t delivered = 0;
  std::uint64_t purged = 0;
  std::uint64_t audits = 0;
  std::uint64_t flits_tracked = 0;
  std::size_t violations = 0;
};

struct CampaignResult {
  CampaignSpec spec;
  std::vector<ScenarioResult> scenarios;  ///< Indexed by scenario index.
  int threads_used = 1;  ///< Informational; never serialized.
  /// True when CampaignSpec::should_stop ended the campaign early;
  /// `scenarios` then holds exactly the claimed prefix of indices.
  bool cancelled = false;

  [[nodiscard]] std::size_t failures() const {
    std::size_t n = 0;
    for (const ScenarioResult& s : scenarios) n += s.ok ? 0 : 1;
    return n;
  }

  /// summarize_shard(*this).summary_text() (verify/shard_merge.hpp):
  /// byte-identical for a given (seed, scenarios) at any thread count, with
  /// failing scenarios listed with their repro specs.
  [[nodiscard]] std::string summary_text() const;
  /// summarize_shard(*this).failures_markdown(), for CI job summaries.
  [[nodiscard]] std::string summary_markdown() const;
};

class FaultCampaign {
 public:
  explicit FaultCampaign(CampaignSpec spec) : spec_(std::move(spec)) {}

  /// Run the whole campaign (parallel, deterministic).
  [[nodiscard]] CampaignResult run() const;

  /// Build and run scenario `index` of campaign `seed` in the calling
  /// thread — the repro entry point. Bit-identical to the same scenario
  /// inside a full campaign run.
  [[nodiscard]] static ScenarioResult run_scenario(const CampaignSpec& spec,
                                                  std::uint64_t index);

  /// Serial-vs-parallel equivalence mode: run the whole campaign twice,
  /// once with step_threads = 1 and once with step_threads as given, and
  /// compare the deterministic summaries byte for byte. Returns the empty
  /// string on equivalence, else a description naming the first diverging
  /// scenario (with its repro spec). This is the campaign-strength version
  /// of test_parallel_step_determinism: thousands of adversarial scenarios
  /// asserting the parallel step changes nothing.
  [[nodiscard]] static std::string equivalence_report(CampaignSpec spec,
                                                      int step_threads);

 private:
  CampaignSpec spec_;
};

}  // namespace htnoc::verify
