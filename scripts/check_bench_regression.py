#!/usr/bin/env python3
"""Benchmark regression gate for CI.

Compares a google-benchmark JSON report (run with --benchmark_repetitions)
against the checked-in bench/baseline.json. Raw nanoseconds are useless
across runner generations, so every median is normalized by the median of
an anchor benchmark (the bit-serial SECDED reference decoder) measured in
the same run: the gate checks *ratios*, which track algorithmic regressions
and ignore machine speed.

Two kinds of checks:
  * tolerance gates — each gated benchmark's normalized median must stay
    within +/-TOLERANCE of the baseline value;
  * hard ratio gates — machine-independent invariants of the implementation
    (e.g. the table-driven SECDED codec must beat the bit-serial oracle),
    enforced with generous margins so they only fire on real regressions.

Refresh the baseline after an intentional performance change with:

    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
    ./build/bench/bench_microbench --benchmark_repetitions=5 \
        --benchmark_format=json --benchmark_out=bench.json
    python3 scripts/check_bench_regression.py bench.json --update

and commit the updated bench/baseline.json with a note on what changed.
"""

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "bench" / "baseline.json"

ANCHOR = "BM_SecdedReferenceDecodeClean"
TOLERANCE = 0.25

# Benchmarks whose normalized medians are gated against the baseline. The
# obfuscation/TASP kernels are tracked in the baseline for visibility but not
# gated: they sit in the single-digit-ns range where run-to-run noise on
# shared CI runners exceeds any plausible regression.
GATED = [
    "BM_SecdedEncode",
    "BM_SecdedDecodeClean",
    "BM_SecdedDecodeSingleError",
    "BM_SecdedDecodeDoubleError",
    "BM_NetworkStepIdle",
    "BM_NetworkStepIdleFullStepping",
    "BM_NetworkStepLoaded",
    "BM_NetworkStepLoaded16x16",
    "BM_NetworkStepUnderAttack",
    "BM_NetworkStepUnderAttackTraced",
    "BM_NetworkStepUnderAttack64x64",
    "BM_NetworkStepAudited",
    "BM_CampaignWarmupRerun",
    "BM_CampaignSnapshotFork",
]

# (numerator, denominator, max ratio, rationale)
HARD_RATIO_GATES = [
    ("BM_SecdedEncode", "BM_SecdedReferenceEncode", 0.60,
     "table-driven SECDED encode must clearly beat the bit-serial oracle"),
    ("BM_SecdedDecodeClean", "BM_SecdedReferenceDecodeClean", 0.60,
     "table-driven SECDED decode must clearly beat the bit-serial oracle"),
    ("BM_NetworkStepIdle", "BM_NetworkStepIdleFullStepping", 0.80,
     "active-set stepping must win on an idle network"),
    ("BM_NetworkStepAudited", "BM_NetworkStepLoaded", 3.9,
     "a clean per-cycle invariant audit must cost about one step (it sorts "
     "nothing, builds no string, allocates nothing): 8 runs of 5 "
     "repetitions on a 4-vCPU host read 1.50-2.58; the max is 1.5x the "
     "worst"),
    ("BM_CampaignSnapshotFork", "BM_CampaignWarmupRerun", 0.60,
     "a snapshot-forked scenario must clearly beat re-running the warmup"),
]

# (benchmark, max normalized median, rationale) — absolute ceilings against
# frozen pre-change constants, for invariants that compare the current
# implementation with one that no longer exists in the tree. The constant is
# the old implementation's normalized median measured on the same anchor
# (machine-independent); the ceiling bakes in the required improvement.
HARD_NORMALIZED_CEILINGS = [
    ("BM_NetworkStepLoaded16x16", 6064 * 0.85,
     "the SoA flit-pool datapath must hold a >=15% loaded-step improvement "
     "over the pre-pool deque/map implementation (pre-SoA normalized median "
     "6064; docs/PERFORMANCE.md section 6)"),
]


TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_medians(report_path):
    """Median real_time per benchmark from a repetitions run, in ns.

    Benchmarks declare their display unit (`->Unit(kMicrosecond)` etc.);
    everything is converted to nanoseconds here so normalization mixes
    units correctly.
    """
    with open(report_path) as f:
        report = json.load(f)
    medians = {}
    for entry in report.get("benchmarks", []):
        if entry.get("run_type") == "aggregate" and \
                entry.get("aggregate_name") == "median":
            scale = TIME_UNIT_NS[entry.get("time_unit", "ns")]
            medians[entry["run_name"]] = float(entry["real_time"]) * scale
    if not medians:
        sys.exit(f"error: no median aggregates in {report_path}; run the "
                 "benchmark with --benchmark_repetitions=5")
    return medians


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="google-benchmark JSON output")
    parser.add_argument("--baseline", default=str(BASELINE_PATH))
    parser.add_argument("--tolerance", type=float, default=TOLERANCE)
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this report")
    args = parser.parse_args()

    medians = load_medians(args.report)
    if ANCHOR not in medians:
        sys.exit(f"error: anchor benchmark {ANCHOR} missing from report")
    anchor = medians[ANCHOR]
    normalized = {name: t / anchor for name, t in sorted(medians.items())
                  if name != ANCHOR}

    if args.update:
        baseline = {
            "anchor_benchmark": ANCHOR,
            "tolerance": args.tolerance,
            "normalized_medians": {k: round(v, 4)
                                   for k, v in normalized.items()},
        }
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"baseline updated: {args.baseline}")
        return

    with open(args.baseline) as f:
        baseline = json.load(f)
    if baseline.get("anchor_benchmark") != ANCHOR:
        sys.exit("error: baseline anchor mismatch; regenerate with --update")
    base = baseline["normalized_medians"]
    tolerance = baseline.get("tolerance", args.tolerance)

    failures = []
    print(f"{'benchmark':42} {'baseline':>10} {'current':>10} {'delta':>8}")
    for name in GATED:
        if name not in normalized:
            failures.append(f"{name}: missing from report")
            continue
        if name not in base:
            failures.append(f"{name}: missing from baseline "
                            "(refresh with --update)")
            continue
        cur, ref = normalized[name], base[name]
        delta = cur / ref - 1.0
        flag = ""
        if abs(delta) > tolerance:
            flag = " REGRESSION" if delta > 0 else " (faster: refresh baseline)"
            if delta > 0:
                failures.append(
                    f"{name}: normalized median {cur:.4f} vs baseline "
                    f"{ref:.4f} ({delta:+.1%}, tolerance ±{tolerance:.0%})")
        print(f"{name:42} {ref:10.4f} {cur:10.4f} {delta:+8.1%}{flag}")

    for num, den, max_ratio, why in HARD_RATIO_GATES:
        if num not in medians or den not in medians:
            failures.append(f"hard gate {num}/{den}: benchmark missing")
            continue
        ratio = medians[num] / medians[den]
        ok = ratio <= max_ratio
        print(f"hard gate: {num}/{den} = {ratio:.3f} "
              f"(max {max_ratio}) {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"hard gate {num}/{den} = {ratio:.3f} > "
                            f"{max_ratio}: {why}")

    for name, ceiling, why in HARD_NORMALIZED_CEILINGS:
        if name not in normalized:
            failures.append(f"hard ceiling {name}: benchmark missing")
            continue
        cur = normalized[name]
        ok = cur <= ceiling
        print(f"hard ceiling: {name} = {cur:.1f} "
              f"(max {ceiling:.1f}) {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"hard ceiling {name} = {cur:.1f} > "
                            f"{ceiling:.1f}: {why}")

    if failures:
        print("\nbenchmark regression gate FAILED:", file=sys.stderr)
        for f_ in failures:
            print(f"  - {f_}", file=sys.stderr)
        print("\nIf the change is an intentional trade-off, refresh the "
              "baseline (see the header of this script) and justify it in "
              "the PR description.", file=sys.stderr)
        sys.exit(1)
    print("\nbenchmark regression gate passed")


if __name__ == "__main__":
    main()
