// Experiment sweep specification: a cartesian grid over the axes the paper
// (and its successors) actually vary — mitigation mode × attack placement ×
// traffic pattern × injection rate × seed replicate — expanded into a flat
// list of fully-resolved, independently-runnable `RunSpec`s.
//
// Determinism contract: every run's RNG seed is derived purely from
// `{base_seed, grid-point linear index, replicate}` with a splitmix64-style
// mix, so a run is bit-reproducible in isolation, regardless of which
// worker thread executes it, in what order, or alongside which other runs.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "noc/flit.hpp"
#include "sim/simulator.hpp"

namespace htnoc::sweep {

/// One named trojan placement evaluated as a grid axis value (e.g. "none",
/// "single_tasp", "5pct_infected").
struct AttackScenario {
  std::string name;
  std::vector<sim::AttackSpec> attacks;
};

/// A secondary traffic source sharing the network with the primary one
/// (e.g. the D1 background domain of the Fig. 12 TDM experiment).
struct BackgroundTraffic {
  std::string profile = "fft";
  /// Absolute injection-rate override; <= 0 keeps the profile's own rate.
  double injection_rate = 0.0;
  TdmDomain domain = TdmDomain::kD1;
};

/// Position of a run in the sweep grid. `linear` indexes grid points in
/// expansion order (mode-major, then attack, profile, rate); replicates of
/// the same point share a `linear` value.
struct GridPoint {
  std::size_t mode_idx = 0;
  std::size_t attack_idx = 0;
  std::size_t profile_idx = 0;
  std::size_t rate_idx = 0;
  std::size_t linear = 0;
};

/// A fully-resolved unit of work: everything `run_single` needs, with no
/// reference back to axis containers.
struct RunSpec {
  GridPoint point;
  int replicate = 0;
  std::uint64_t seed = 0;  ///< Derived; see derive_run_seed().

  sim::MitigationMode mode = sim::MitigationMode::kNone;
  std::string attack_name;
  std::vector<sim::AttackSpec> attacks;
  std::string profile;
  double rate_scale = 1.0;

  /// Per-run trace capture, copied from SweepSpec::base.trace by expand().
  /// Replay tooling can flip `enabled` on one RunSpec to capture a single
  /// grid point without re-running (or tracing) the whole sweep.
  trace::TraceConfig trace;

  /// "mode=lob attack=single profile=blackscholes rate=1.00" — stable key
  /// shared by all replicates of a grid point.
  [[nodiscard]] std::string point_label() const;
  /// point_label() plus " rep=<k>".
  [[nodiscard]] std::string label() const;
};

/// The sweep grid plus everything shared by all runs (base configuration,
/// termination rule, observation settings).
struct SweepSpec {
  /// Template configuration; per-run the engine overrides `mode`,
  /// `attacks` and the seeds from the grid point. The fabric — topology
  /// kind, mesh dimensions, concentration — is set here and shared by every
  /// run of the sweep (`base.noc.topology` et al.; see common/geometry.hpp).
  sim::SimConfig base;

  // --- grid axes (each must be non-empty; validated by expand()) ---
  std::vector<sim::MitigationMode> modes{sim::MitigationMode::kNone};
  std::vector<AttackScenario> attack_scenarios{{"none", {}}};
  std::vector<std::string> profiles{"blackscholes"};
  /// Multipliers applied to the profile's injection_rate.
  std::vector<double> rate_scales{1.0};
  int replicates = 1;

  std::uint64_t base_seed = 0x5EED;

  // --- termination ---
  /// total_requests == 0: run exactly `run_cycles` cycles (figure mode).
  /// total_requests  > 0: run to workload completion or `cycle_budget`.
  Cycle run_cycles = 3000;
  std::uint64_t total_requests = 0;
  Cycle cycle_budget = 2'000'000;

  // --- observation ---
  /// Sample utilization + throughput every `probe_period` cycles (0 = off).
  Cycle probe_period = 0;

  /// TDM domain of the primary generator (the measured application).
  TdmDomain primary_domain = TdmDomain::kD1;
  /// Optional second generator (e.g. TDM background load).
  std::optional<BackgroundTraffic> background;

  /// Optional per-packet transform factory (e.g. e2e obfuscation). Called
  /// once per run, possibly concurrently from several worker threads, so it
  /// must be re-entrant; the returned transform is owned by that run alone.
  std::function<std::function<void(PacketInfo&)>(const RunSpec&)>
      transform_factory;

  [[nodiscard]] std::size_t num_grid_points() const noexcept {
    return modes.size() * attack_scenarios.size() * profiles.size() *
           rate_scales.size();
  }
};

/// Deterministic per-run seed: a splitmix64-style mix of the three
/// coordinates. Identical for a given {base_seed, point, replicate} on
/// every platform, thread count and schedule.
[[nodiscard]] std::uint64_t derive_run_seed(std::uint64_t base_seed,
                                            std::uint64_t point_linear,
                                            std::uint64_t replicate);

/// Stateless re-mix for deriving independent sub-streams (network RNG,
/// traffic RNG, ...) from one run seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Expand the grid into runs, replicate-minor (all replicates of a grid
/// point are adjacent, grid points in mode-major order). Throws
/// ContractViolation on an empty axis or replicates < 1.
[[nodiscard]] std::vector<RunSpec> expand(const SweepSpec& spec);

}  // namespace htnoc::sweep
