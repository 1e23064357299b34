// Unit coverage for the sweep engine: grid expansion and seeding,
// aggregation math, worker-count resolution, the worker loop, and error
// containment when a run throws mid-sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>

#include "common/expect.hpp"
#include "sweep/emit.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace htnoc {
namespace {

sweep::SweepSpec tiny_spec() {
  sweep::SweepSpec spec;
  spec.modes = {sim::MitigationMode::kNone};
  spec.attack_scenarios = {{"none", {}}};
  spec.profiles = {"blackscholes"};
  spec.rate_scales = {1.0};
  spec.replicates = 1;
  spec.run_cycles = 120;  // keep unit tests fast
  return spec;
}

sim::AttackSpec single_tasp(Cycle enable_at) {
  sim::AttackSpec a;
  a.link = {4, Direction::kNorth};
  a.tasp.kind = trojan::TargetKind::kDest;
  a.tasp.target_dest = 0;
  a.enable_killsw_at = enable_at;
  return a;
}

TEST(GridExpansion, CountsAndOrder) {
  sweep::SweepSpec spec = tiny_spec();
  spec.modes = {sim::MitigationMode::kNone, sim::MitigationMode::kLOb};
  spec.attack_scenarios = {{"none", {}}, {"single", {single_tasp(50)}}};
  spec.profiles = {"blackscholes", "fft", "ferret"};
  spec.rate_scales = {0.5, 1.0};
  spec.replicates = 3;

  const auto runs = sweep::expand(spec);
  EXPECT_EQ(spec.num_grid_points(), 2u * 2u * 3u * 2u);
  ASSERT_EQ(runs.size(), spec.num_grid_points() * 3u);

  // Replicates of a point are adjacent; points are mode-major.
  EXPECT_EQ(runs[0].point.linear, 0u);
  EXPECT_EQ(runs[0].replicate, 0);
  EXPECT_EQ(runs[1].point.linear, 0u);
  EXPECT_EQ(runs[1].replicate, 1);
  EXPECT_EQ(runs[3].point.linear, 1u);
  EXPECT_EQ(runs.front().mode, sim::MitigationMode::kNone);
  EXPECT_EQ(runs.back().mode, sim::MitigationMode::kLOb);
  EXPECT_EQ(runs.back().point.linear, spec.num_grid_points() - 1);
  EXPECT_EQ(runs.back().replicate, 2);
  // Rate is the innermost axis.
  EXPECT_EQ(runs[0].rate_scale, 0.5);
  EXPECT_EQ(runs[3].rate_scale, 1.0);
  EXPECT_EQ(runs[6].profile, "fft");
  // Attacks resolved by value.
  EXPECT_TRUE(runs[0].attacks.empty());
  const std::size_t runs_per_attack = 3 * 2 * 3;  // profiles*rates*reps
  EXPECT_EQ(runs[runs_per_attack].attack_name, "single");
  ASSERT_EQ(runs[runs_per_attack].attacks.size(), 1u);
}

TEST(GridExpansion, SeedsAreStableAndDistinct) {
  sweep::SweepSpec spec = tiny_spec();
  spec.modes = {sim::MitigationMode::kNone, sim::MitigationMode::kReroute};
  spec.rate_scales = {1.0, 1.5};
  spec.replicates = 4;

  const auto a = sweep::expand(spec);
  const auto b = sweep::expand(spec);
  ASSERT_EQ(a.size(), b.size());
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed) << "expansion must be reproducible";
    EXPECT_EQ(a[i].seed,
              sweep::derive_run_seed(spec.base_seed, a[i].point.linear,
                                     static_cast<std::uint64_t>(
                                         a[i].replicate)));
    seeds.insert(a[i].seed);
  }
  EXPECT_EQ(seeds.size(), a.size()) << "per-run seeds must not collide";

  // Seeds must not alias across the (point, replicate) diagonal.
  EXPECT_NE(sweep::derive_run_seed(1, 0, 1), sweep::derive_run_seed(1, 1, 0));
}

TEST(GridExpansion, EmptyAxesRejected) {
  {
    sweep::SweepSpec s = tiny_spec();
    s.modes.clear();
    EXPECT_THROW((void)sweep::expand(s), ContractViolation);
  }
  {
    sweep::SweepSpec s = tiny_spec();
    s.attack_scenarios.clear();
    EXPECT_THROW((void)sweep::expand(s), ContractViolation);
  }
  {
    sweep::SweepSpec s = tiny_spec();
    s.profiles.clear();
    EXPECT_THROW((void)sweep::expand(s), ContractViolation);
  }
  {
    sweep::SweepSpec s = tiny_spec();
    s.rate_scales.clear();
    EXPECT_THROW((void)sweep::expand(s), ContractViolation);
  }
  {
    sweep::SweepSpec s = tiny_spec();
    s.replicates = 0;
    EXPECT_THROW((void)sweep::expand(s), ContractViolation);
  }
  {
    sweep::SweepSpec s = tiny_spec();
    s.attack_scenarios = {{"", {}}};  // unnamed scenarios break labels
    EXPECT_THROW((void)sweep::expand(s), ContractViolation);
  }
}

TEST(Aggregation, HandComputedMeanStddevMinMax) {
  const auto a = sweep::aggregate_values({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(a.mean, 2.5);
  EXPECT_NEAR(a.stddev, std::sqrt(5.0 / 3.0), 1e-12);  // sample stddev
  EXPECT_DOUBLE_EQ(a.min, 1.0);
  EXPECT_DOUBLE_EQ(a.max, 4.0);

  const auto b = sweep::aggregate_values({2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_DOUBLE_EQ(b.mean, 5.0);
  EXPECT_NEAR(b.stddev, std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(b.min, 2.0);
  EXPECT_DOUBLE_EQ(b.max, 9.0);

  const auto single = sweep::aggregate_values({42.0});
  EXPECT_DOUBLE_EQ(single.mean, 42.0);
  EXPECT_DOUBLE_EQ(single.stddev, 0.0);  // n < 2: no spread estimate
  EXPECT_DOUBLE_EQ(single.min, 42.0);
  EXPECT_DOUBLE_EQ(single.max, 42.0);

  const auto empty = sweep::aggregate_values({});
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  EXPECT_DOUBLE_EQ(empty.stddev, 0.0);
}

TEST(Aggregation, GroupsReplicatesByGridPoint) {
  sweep::SweepSpec spec = tiny_spec();
  spec.rate_scales = {0.5, 1.0};
  spec.replicates = 3;
  const auto result = sweep::SweepRunner({1}).run(spec);
  ASSERT_EQ(result.runs.size(), 6u);
  ASSERT_EQ(result.summary.size(), 2u);
  for (const auto& gs : result.summary) {
    EXPECT_EQ(gs.replicates, 3);
    EXPECT_EQ(gs.failures, 0);
    ASSERT_EQ(gs.metrics.size(), sweep::RunResult::metric_names().size());
  }
  // The aggregate of `delivered` must equal the hand-aggregated per-run
  // values of the same grid point.
  std::vector<double> delivered;
  for (const auto& r : result.runs) {
    if (r.spec.point.linear == 0) {
      delivered.push_back(static_cast<double>(r.traffic.packets_delivered));
    }
  }
  const auto expect = sweep::aggregate_values(delivered);
  const auto& got = result.summary[0].metrics[0];  // "delivered"
  EXPECT_DOUBLE_EQ(got.mean, expect.mean);
  EXPECT_DOUBLE_EQ(got.stddev, expect.stddev);
  EXPECT_DOUBLE_EQ(got.min, expect.min);
  EXPECT_DOUBLE_EQ(got.max, expect.max);
  // Replicates actually differ (the seeds decorrelate them), so the spread
  // of the (continuous-valued) mean latency is non-zero — the aggregation
  // is not degenerate.
  EXPECT_GT(result.summary[0].metrics[1].stddev, 0.0);  // "avg_latency"
}

TEST(SweepRunner, WorkerCountResolution) {
  EXPECT_GE(sweep::SweepRunner::resolve_threads(0, 100), 1);
  EXPECT_EQ(sweep::SweepRunner::resolve_threads(3, 100), 3);
  EXPECT_EQ(sweep::SweepRunner::resolve_threads(64, 5), 5)
      << "never more workers than runs";
  EXPECT_EQ(sweep::SweepRunner::resolve_threads(-2, 1), 1);
  EXPECT_EQ(sweep::SweepRunner::resolve_threads(8, 0), 8)
      << "zero runs: any positive count is fine";
}

TEST(SweepRunner, IndexLoopRunsEachIndexOnceAndStopsOnAPrefix) {
  for (const int threads : {1, 4}) {
    std::vector<std::atomic<int>> hits(50);
    const auto loop = sweep::SweepRunner::for_each_index(
        hits.size(), threads, [&](std::size_t i) { hits[i].fetch_add(1); });
    EXPECT_EQ(loop.claimed, hits.size());
    EXPECT_FALSE(loop.stopped);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads;
  }
  // A token that fires at its eighth poll leaves exactly [0, 7) run.
  int polls = 0;
  std::vector<int> ran(50, 0);
  const auto loop = sweep::SweepRunner::for_each_index(
      ran.size(), 1, [&](std::size_t i) { ran[i] = 1; },
      [&] { return ++polls > 7; });
  EXPECT_TRUE(loop.stopped);
  EXPECT_EQ(loop.claimed, 7u);
  EXPECT_EQ(std::count(ran.begin(), ran.begin() + 7, 1), 7);
  EXPECT_EQ(std::count(ran.begin(), ran.end(), 1), 7);
}

TEST(SweepRunner, ExceptionMidSweepIsContained) {
  sweep::SweepSpec spec = tiny_spec();
  // Second grid point throws inside the run (unknown profile); the sweep
  // must still finish the good runs and report the error per-slot.
  spec.profiles = {"blackscholes", "no_such_profile"};
  spec.replicates = 2;
  const auto result = sweep::SweepRunner({2}).run(spec);
  ASSERT_EQ(result.runs.size(), 4u);
  EXPECT_EQ(result.failures(), 2u);
  for (const auto& r : result.runs) {
    if (r.spec.profile == "no_such_profile") {
      EXPECT_FALSE(r.ok);
      EXPECT_FALSE(r.error.empty());
    } else {
      EXPECT_TRUE(r.ok) << r.error;
      EXPECT_GT(r.traffic.packets_delivered, 0u);
    }
  }
  ASSERT_EQ(result.summary.size(), 2u);
  EXPECT_EQ(result.summary[0].replicates, 2);
  EXPECT_EQ(result.summary[0].failures, 0);
  EXPECT_EQ(result.summary[1].replicates, 0);
  EXPECT_EQ(result.summary[1].failures, 2);
  // Failed runs serialize with their error instead of metrics.
  const std::string json = sweep::to_json(result);
  EXPECT_NE(json.find("no_such_profile"), std::string::npos);
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
}

TEST(SweepRunner, ProbeSeriesRecordedWhenEnabled) {
  sweep::SweepSpec spec = tiny_spec();
  spec.run_cycles = 200;
  spec.probe_period = 50;
  const auto result = sweep::SweepRunner({1}).run(spec);
  ASSERT_EQ(result.runs.size(), 1u);
  const auto& r = result.runs[0];
  ASSERT_EQ(r.util_series.size(), 4u);  // cycles 50,100,150,200
  ASSERT_EQ(r.throughput_series.size(), 4u);
  EXPECT_EQ(r.util_series[0].cycle, 50u);
  EXPECT_EQ(r.throughput_series.back().cycle, 200u);
  EXPECT_EQ(r.throughput_series.back().primary_delivered,
            r.traffic.packets_delivered);
}

}  // namespace
}  // namespace htnoc
