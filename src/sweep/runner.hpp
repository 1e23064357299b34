// Thread-pool execution of an expanded sweep. Each run owns its entire
// simulation state (Simulator, generators, probes, RNG streams seeded from
// the RunSpec), workers claim runs off a lock-free atomic cursor, and every
// result is written into a pre-allocated slot addressed by run index — so
// the result vector, the aggregates and the serialized output are
// byte-identical whether the sweep ran on 1 thread or 64.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <memory>

#include "noc/network.hpp"
#include "sweep/spec.hpp"
#include "trace/sink.hpp"
#include "traffic/generator.hpp"

namespace htnoc::sweep {

/// Cumulative deliveries at a probe sampling instant (the raw material of
/// the Fig. 11/12 time-series).
struct ThroughputSample {
  Cycle cycle = 0;
  std::uint64_t primary_delivered = 0;
  std::uint64_t background_delivered = 0;
};

/// Everything one run produced. Scalar metrics are exposed as a fixed
/// name->value schema (metric_names() / metrics()) so aggregation and the
/// emitters never hard-code field lists twice.
struct RunResult {
  RunSpec spec;
  bool ok = false;
  std::string error;  ///< Exception text when ok == false.

  /// Workload finished inside the budget (always true in fixed-cycle mode).
  bool completed = false;
  Cycle cycles = 0;

  traffic::TrafficGenerator::Stats traffic;     ///< Primary generator.
  traffic::TrafficGenerator::Stats background;  ///< Zeros when unused.
  sim::Simulator::Stats sim;
  std::uint64_t trojan_injections = 0;
  std::uint64_t lob_successes = 0;
  std::uint64_t lob_log_hits = 0;
  Network::UtilizationSample final_util;

  // Populated only when spec.probe_period > 0.
  std::vector<Network::UtilizationSample> util_series;
  std::vector<ThroughputSample> throughput_series;

  /// Captured event trace; non-null only when the run's trace config was
  /// enabled. Shared so copying results stays cheap; the log itself is
  /// immutable once the run finishes.
  std::shared_ptr<const trace::TraceLog> trace;

  /// Scalar metric values, parallel to metric_names().
  [[nodiscard]] std::vector<double> metrics() const;
  [[nodiscard]] static const std::vector<std::string>& metric_names();
};

struct MetricAggregate {
  double mean = 0.0;
  double stddev = 0.0;  ///< Sample stddev (n-1); 0 when n < 2.
  double min = 0.0;
  double max = 0.0;
};

/// Mean/stddev/min/max over a metric's replicate values, accumulated in
/// index order (deterministic FP summation order).
[[nodiscard]] MetricAggregate aggregate_values(const std::vector<double>& v);

/// Aggregated replicates of one grid point.
struct GridSummary {
  std::size_t point_linear = 0;
  std::string label;    ///< RunSpec::point_label() of the point.
  int replicates = 0;   ///< Successful runs aggregated.
  int failures = 0;     ///< Replicates that errored (excluded from stats).
  std::vector<MetricAggregate> metrics;  ///< Parallel to metric_names().
};

struct SweepResult {
  std::vector<RunResult> runs;       ///< In expansion order.
  std::vector<GridSummary> summary;  ///< One per grid point, in order.
  int threads_used = 1;  ///< Informational; never serialized by emitters.

  [[nodiscard]] std::size_t failures() const {
    std::size_t n = 0;
    for (const RunResult& r : runs) n += r.ok ? 0 : 1;
    return n;
  }
};

/// Group runs by grid point (expansion order) and aggregate each metric
/// over the point's successful replicates.
[[nodiscard]] std::vector<GridSummary> aggregate(
    const std::vector<RunResult>& runs);

class SweepRunner {
 public:
  struct Options {
    /// Worker threads. <= 0: use $HTNOC_JOBS if set, else
    /// hardware_concurrency divided by the per-run step_threads (so
    /// sweep-level × step-level parallelism never oversubscribes the
    /// machine; see docs/SCALING.md). An explicit request is taken as-is.
    /// Always clamped to [1, number of runs].
    int num_threads = 0;
  };

  SweepRunner() = default;
  explicit SweepRunner(Options opts) : opts_(opts) {}

  /// Resolve a requested thread count against the environment and the
  /// amount of work (exposed for tests).
  [[nodiscard]] static int resolve_threads(int requested,
                                           std::size_t num_runs);

  /// As above, composed with intra-run stepping parallelism: when the
  /// run-level count is auto-resolved from the hardware, it is divided by
  /// `step_threads` so jobs × step_threads stays within the core budget.
  /// Explicit requests (> 0, or $HTNOC_JOBS) are honored unchanged.
  [[nodiscard]] static int resolve_threads(int requested,
                                           std::size_t num_runs,
                                           int step_threads);

  /// How far for_each_index got: indices [0, claimed) were claimed and each
  /// ran to completion; `stopped` says the stop token ended the loop.
  struct IndexLoop {
    std::size_t claimed = 0;
    bool stopped = false;
  };

  /// The one worker loop of sweeps and fault campaigns: `threads` workers
  /// (the calling thread alone when 1) claim indices in [0, count) off one
  /// atomic cursor and call `body` on each, which writes into its own
  /// index-addressed slot, so the output is independent of the schedule.
  /// `body` must not throw. `should_stop`, if set, is polled before each
  /// claim and must be thread-safe: a claimed index always finishes, so the
  /// claimed set stays a prefix.
  static IndexLoop for_each_index(
      std::size_t count, int threads,
      const std::function<void(std::size_t)>& body,
      const std::function<bool()>& should_stop = nullptr);

  /// Expand and execute the whole sweep. A run that throws is recorded in
  /// its slot (ok == false, error set); the remaining runs still execute.
  [[nodiscard]] SweepResult run(const SweepSpec& spec) const;

  /// Execute one fully-resolved run in the calling thread — deterministic
  /// replay of any grid point from its RunSpec (throws on failure).
  [[nodiscard]] static RunResult run_single(const SweepSpec& spec,
                                            const RunSpec& rs);

 private:
  Options opts_{};
};

}  // namespace htnoc::sweep
