#!/usr/bin/env python3
"""Time a change against its parent in alternating perfbench pairs.

    python3 scripts/bench_pairs.py --base PARENT_TREE --head CHANGE_TREE \\
        --pr N [--pairs 10] [--seed 1001] [--workloads W1,W2] \\
        [--build-root DIR] [--out PATH]

Each tree is a source checkout holding perfbench/run.py (the parent's and
the change's commits, e.g. two `git clone`s). Each side is built and run
through its own, unchanged perfbench/run.py, with its own CARGO_TARGET_DIR
under --build-root, so the two builds never share objects.

For every workload, pair i runs both sides once on seed --seed + i, for
BENCHMARK.json's run_seconds each, untraced. Even pairs run the parent
first, odd pairs the change first, so a drift of the host over time falls
on both sides alike.

The result goes to BENCH_<pr>.json at the repository root (or --out). For
each workload and each end-to-end metric BENCHMARK.json names, it holds
each side's values, median and quartiles (statistics.quantiles, n=4), the
pairs the change won, the relative change of the medians and a verdict
against the metric's bound (see verdict()); beside them the seeds, the run
seconds, nproc, both commit ids, and whether every run ended in its side's
first end state for its seed (counts line and end-state hash) and in the
parent's end state.

Once the record is written, standard output gets one line per workload and
metric: the verdict, both medians, the relative change and the pairs the
change won. The exit status is 1 when any verdict is "worse", else 0; an
"unresolved" verdict passes. This is CI's performance gate (the perf-pairs
job in .github/workflows/ci.yml).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")


def first_side(pair):
    """The side that runs first in pair `pair`: base on even pairs."""
    return SIDES[pair % 2]


def run_order(pair):
    first = first_side(pair)
    return (first, SIDES[1 - SIDES.index(first)])


def spread(values):
    """Median and quartiles (statistics.quantiles, n=4) of `values`."""
    if len(values) < 2:
        v = values[0] if values else None
        return {"median": v, "q1": v, "q3": v}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def head_wins(base, head, better):
    """Pairs in which the head's value is strictly better than the base's."""
    if better == "higher":
        return sum(1 for b, h in zip(base, head) if h > b)
    return sum(1 for b, h in zip(base, head) if h < b)


def verdict(base, head, better, bound):
    """The no-regression verdict on one metric, `bound` a share of the
    base median:

    * "worse": the head's median is worse than the base's by more than
      bound x the base median;
    * otherwise "unresolved": either side's interquartile range exceeds
      bound x the base median, unless every head run beats every base run;
    * otherwise "not_worse".
    """
    bs, hs = spread(base), spread(head)
    tolerance = bound * abs(bs["median"])
    sign = 1 if better == "higher" else -1
    if sign * (hs["median"] - bs["median"]) < -tolerance:
        return "worse"
    wide = max(bs["q3"] - bs["q1"], hs["q3"] - hs["q1"]) > tolerance
    if better == "higher":
        separated = min(head) > max(base)
    else:
        separated = max(head) < min(base)
    return "unresolved" if wide and not separated else "not_worse"


def metric_summary(base, head, better, bound):
    """One metric of one workload over all pairs (lists in pair order)."""
    bs, hs = spread(base), spread(head)
    out = {"better": better, "bound": bound, "base": {**bs, "values": base},
           "head": {**hs, "values": head},
           "head_wins": head_wins(base, head, better), "pairs": len(base),
           "verdict": verdict(base, head, better, bound)}
    if bs["median"]:
        out["median_change"] = (hs["median"] - bs["median"]) / bs["median"]
        base_iqr = bs["q3"] - bs["q1"]
        out["base_iqr"] = base_iqr
        out["medians_differ_by_more_than_base_iqr"] = (
            abs(hs["median"] - bs["median"]) > base_iqr)
    return out


def num(v):
    """A metric value for a progress or verdict line."""
    return f"{v:,.0f}" if abs(v) >= 1000 else f"{v:.4g}"


def verdict_lines(record):
    """One line per workload and metric of a record, in record order."""
    lines = []
    for workload, w in record["workloads"].items():
        for name, m in w["metrics"].items():
            change = m.get("median_change")
            change = "n/a" if change is None else f"{change:+.1%}"
            lines.append(f"{m['verdict']}: {workload} {name} "
                         f"{num(m['base']['median'])} -> {num(m['head']['median'])} "
                         f"({change}), change won {m['head_wins']}/{m['pairs']} pairs")
    return lines


def end_state_summary(runs):
    """`runs`: per side, a list of (seed, end_state) in run order.

    A side is stable when every run ends in the end state of that side's
    first run on the same seed; the head matches when each of its seeds
    ends where the base's first run on that seed ended."""
    first = {side: {} for side in SIDES}
    stable = {side: True for side in SIDES}
    for side in SIDES:
        for seed, state in runs[side]:
            ref = first[side].setdefault(seed, state)
            stable[side] = stable[side] and state == ref
    matches = all(first["base"].get(seed) == state
                  for seed, state in first["head"].items())
    return {"base_stable": stable["base"], "head_stable": stable["head"],
            "head_matches_base": matches}


def parse_output(stdout):
    """perfbench's last three lines: meta, counts/end state, result."""
    lines = [l for l in stdout.splitlines() if l.startswith("{")]
    if len(lines) < 3:
        raise ValueError("perfbench printed fewer than three JSON lines")
    meta, counts, result = (json.loads(l) for l in lines[-3:])
    end_state = json.dumps({"counts": counts.get("counts"),
                            "end": counts.get("end")}, sort_keys=True)
    return meta, end_state, result


def run_side(tree, build_dir, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {tree}: {workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    meta, end_state, result = parse_output(proc.stdout)
    if not result.get("correct", False):
        raise SystemExit(f"bench_pairs: {tree}: {workload} seed {seed} failed "
                         f"its end-state check")
    return meta, end_state, result, wall


def benchmark_spec(tree):
    """The tree's BENCHMARK.json: its workloads and end-to-end metrics."""
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return json.load(f)


def bench_workload(trees, builds, workload, pairs, seconds, seed0, metrics):
    values = {side: {m["name"]: [] for m in metrics} for side in SIDES}
    walls = {side: [] for side in SIDES}
    ends = {side: [] for side in SIDES}
    commits = {}
    seeds = []
    for pair in range(pairs):
        seed = seed0 + pair
        seeds.append(seed)
        for side in run_order(pair):
            meta, end_state, result, wall = run_side(
                trees[side], builds[side], workload, seed, seconds)
            commits[side] = meta.get("meta", {}).get("commit")
            walls[side].append(wall)
            ends[side].append((seed, end_state))
            for m in metrics:
                values[side][m["name"]].append(
                    result["metrics"][m["name"]]["value"])
        print(f"{workload} pair {pair + 1}/{pairs} seed {seed}: " + ", ".join(
            f"{m['name']} {num(values['base'][m['name']][-1])} -> "
            f"{num(values['head'][m['name']][-1])}" for m in metrics[:1]),
            file=sys.stderr)
    return {
        "seeds": seeds,
        "first": [first_side(p) for p in range(pairs)],
        "seconds": seconds,
        "run_wall_s": walls,
        "end_state": end_state_summary(ends),
        "metrics": {m["name"]: {"unit": m.get("unit"),
                                **metric_summary(values["base"][m["name"]],
                                                 values["head"][m["name"]],
                                                 m["better"], m["bound"])}
                    for m in metrics},
    }, commits


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the parent's source tree")
    ap.add_argument("--head", required=True, help="the change's source tree")
    ap.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1001, help="seed of pair 0")
    ap.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--build-root", default=os.path.join(ROOT, ".bench_build", "pairs"))
    ap.add_argument("--out")
    args = ap.parse_args()

    trees = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    builds = {side: os.path.join(os.path.abspath(args.build_root), side) for side in SIDES}
    spec = benchmark_spec(trees["head"])
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")

    # A one-second run of each side builds it before anything is timed.
    for side in SIDES:
        run_side(trees[side], builds[side], workloads[0], args.seed, 1)

    record = {"pr": args.pr, "tool": "scripts/bench_pairs.py",
              "nproc": os.cpu_count(), "pairs": args.pairs,
              "seconds": seconds, "commits": {}, "workloads": {}}
    for workload in workloads:
        record["workloads"][workload], commits = bench_workload(
            trees, builds, workload, args.pairs, seconds, args.seed, metrics)
        record["commits"].update(commits)
        with open(out, "w") as f:  # rewritten after each workload
            json.dump(record, f, indent=2)
            f.write("\n")
    print(f"bench_pairs: wrote {out}", file=sys.stderr)
    for line in verdict_lines(record):
        print(line)
    worse = any(m["verdict"] == "worse" for w in record["workloads"].values()
                for m in w["metrics"].values())
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
