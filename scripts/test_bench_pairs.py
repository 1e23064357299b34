#!/usr/bin/env python3
"""Unit tests of bench_pairs.py's pairing and statistics.

    python3 scripts/test_bench_pairs.py

Builds nothing and runs no benchmark: the perfbench runs are faked.
"""
import io
import json
import os
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_pairs  # noqa: E402


def fake_output(value, end_hash, commit="c0ffee"):
    meta = {"meta": {"workload": "w", "commit": commit, "nproc": 4}}
    counts = {"counts": {"cycles": 1000}, "end": {"hash": end_hash, "delivered": 7},
              "spans": 0}
    result = {"correct": True, "metrics": {
        "cycles_per_s": {"value": value, "unit": "cycles/s"},
        "setup_s": {"value": 1.0 / value, "unit": "s"}}}
    return "\n".join(json.dumps(x) for x in (meta, counts, result)) + "\n"


class Pairing(unittest.TestCase):
    def test_sides_alternate_going_first(self):
        self.assertEqual([bench_pairs.first_side(p) for p in range(4)],
                         ["base", "head", "base", "head"])
        self.assertEqual(bench_pairs.run_order(0), ("base", "head"))
        self.assertEqual(bench_pairs.run_order(1), ("head", "base"))


class Statistics(unittest.TestCase):
    def test_spread_uses_exclusive_quartiles(self):
        s = bench_pairs.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(s["median"], 5.5)
        self.assertEqual((s["q1"], s["q3"]), (2.75, 8.25))

    def test_spread_of_one_value(self):
        self.assertEqual(bench_pairs.spread([3.0]),
                         {"median": 3.0, "q1": 3.0, "q3": 3.0})

    def test_wins_follow_the_better_direction_and_ties_lose(self):
        base, head = [10, 10, 10, 10], [11, 9, 10, 12]
        self.assertEqual(bench_pairs.head_wins(base, head, "higher"), 2)
        self.assertEqual(bench_pairs.head_wins(base, head, "lower"), 1)

    def test_metric_summary(self):
        base = [100, 102, 98, 101, 99]
        head = [120, 119, 97, 125, 121]
        m = bench_pairs.metric_summary(base, head, "higher", 0.25)
        self.assertEqual(m["head_wins"], 4)
        self.assertEqual(m["pairs"], 5)
        self.assertAlmostEqual(m["median_change"], 0.20)
        self.assertAlmostEqual(m["base_iqr"], 101.5 - 98.5)
        self.assertTrue(m["medians_differ_by_more_than_base_iqr"])
        self.assertEqual(m["base"]["values"], base)
        self.assertEqual(m["bound"], 0.25)
        self.assertEqual(m["verdict"], "not_worse")


class Verdict(unittest.TestCase):
    def test_worse_when_the_median_falls_past_the_bound(self):
        base = [100, 101, 99, 100, 100]
        head = [70, 71, 69, 70, 70]  # median 70: 30% below, bound 25%
        self.assertEqual(bench_pairs.verdict(base, head, "higher", 0.25), "worse")
        # The same numbers for a lower-is-better metric are a gain.
        self.assertEqual(bench_pairs.verdict(base, head, "lower", 0.25),
                         "not_worse")
        # A lower-is-better metric is worse when it rises past the bound.
        self.assertEqual(bench_pairs.verdict(head, base, "lower", 0.25), "worse")

    def test_a_median_just_inside_the_bound_is_not_worse(self):
        base = [100, 101, 99, 100, 100]
        head = [76, 77, 75, 76, 76]
        self.assertEqual(bench_pairs.verdict(base, head, "higher", 0.25),
                         "not_worse")

    def test_unresolved_when_a_side_spreads_past_the_bound(self):
        base = [100, 100, 100, 100, 100]
        head = [40, 70, 100, 130, 160]  # median even, IQR 90 > 25
        self.assertEqual(bench_pairs.verdict(base, head, "higher", 0.25),
                         "unresolved")
        # Either side's spread counts.
        self.assertEqual(bench_pairs.verdict(head, [100] * 5, "higher", 0.25),
                         "unresolved")

    def test_a_wide_spread_is_resolved_when_every_head_run_wins(self):
        base = [10, 40, 60, 80, 100]
        head = [101, 150, 200, 250, 300]
        self.assertEqual(bench_pairs.verdict(base, head, "higher", 0.25),
                         "not_worse")
        # One head run inside the base's range leaves it unresolved.
        head[0] = 99
        self.assertEqual(bench_pairs.verdict(base, head, "higher", 0.25),
                         "unresolved")
        # For a lower-is-better metric every head run must be lower.
        self.assertEqual(bench_pairs.verdict([101, 150, 200, 250, 300],
                                             [10, 40, 60, 80, 100], "lower",
                                             0.25), "not_worse")


class EndStates(unittest.TestCase):
    def test_stable_and_matching(self):
        runs = {"base": [(1, "a"), (2, "b"), (1, "a")],
                "head": [(1, "a"), (2, "b")]}
        self.assertEqual(bench_pairs.end_state_summary(runs),
                         {"base_stable": True, "head_stable": True,
                          "head_matches_base": True})

    def test_a_drifting_side_and_a_mismatch_are_reported(self):
        runs = {"base": [(1, "a"), (1, "x")], "head": [(1, "b")]}
        s = bench_pairs.end_state_summary(runs)
        self.assertFalse(s["base_stable"])
        self.assertTrue(s["head_stable"])
        self.assertFalse(s["head_matches_base"])


class Workload(unittest.TestCase):
    def test_pairs_run_alternately_on_successive_seeds(self):
        calls = []
        # The head is 25% faster; pair 2's base run is an outlier that wins.
        values = {"base": [100, 100, 200, 100], "head": [125, 125, 125, 125]}

        def fake_run(cmd, cwd, env, capture_output, text):
            side = "base" if cwd == "/b" else "head"
            seed = int(cmd[cmd.index("--seed") + 1])
            calls.append((side, seed, env["CARGO_TARGET_DIR"]))
            value = values[side][seed - 7]
            return mock.Mock(returncode=0, stdout=fake_output(value, f"s{seed}"),
                             stderr="")

        metrics = [{"name": "cycles_per_s", "unit": "cycles/s", "better": "higher",
                    "bound": 0.25},
                   {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
        with mock.patch.object(bench_pairs.subprocess, "run", fake_run), \
                mock.patch("sys.stderr"):
            rec, commits = bench_pairs.bench_workload(
                {"base": "/b", "head": "/h"}, {"base": "/ob", "head": "/oh"},
                "w", 4, 25, 7, metrics)
        self.assertEqual([c[:2] for c in calls],
                         [("base", 7), ("head", 7), ("head", 8), ("base", 8),
                          ("base", 9), ("head", 9), ("head", 10), ("base", 10)])
        self.assertTrue(all(c[2] == ("/ob" if c[0] == "base" else "/oh") for c in calls))
        self.assertEqual(rec["seeds"], [7, 8, 9, 10])
        self.assertEqual(rec["first"], ["base", "head", "base", "head"])
        self.assertEqual(rec["seconds"], 25)
        cps = rec["metrics"]["cycles_per_s"]
        self.assertEqual(cps["head_wins"], 3)
        self.assertEqual(cps["base"]["median"], 100)
        self.assertAlmostEqual(cps["median_change"], 0.25)
        # Every head run beats three of four base runs, not all of them, and
        # the base's outlier spreads its IQR to 75 > 25.
        self.assertEqual(cps["verdict"], "unresolved")
        self.assertEqual(rec["metrics"]["setup_s"]["head_wins"], 3)
        self.assertEqual(rec["end_state"], {"base_stable": True, "head_stable": True,
                                            "head_matches_base": True})
        self.assertEqual(commits, {"base": "c0ffee", "head": "c0ffee"})

    def test_runs_last_as_long_as_benchmark_json_says(self):
        seconds = []

        def fake_run(cmd, cwd, env, capture_output, text):
            seconds.append(float(cmd[cmd.index("--seconds") + 1]))
            return mock.Mock(returncode=0, stdout=fake_output(100, "s"), stderr="")

        spec = {"run_seconds": 7, "workloads": [{"name": "w"}],
                "end_to_end": [{"name": "cycles_per_s", "better": "higher",
                                "bound": 0.25}]}
        with tempfile.TemporaryDirectory() as tmp:
            for tree in ("base", "head"):
                os.mkdir(os.path.join(tmp, tree))
                with open(os.path.join(tmp, tree, "BENCHMARK.json"), "w") as f:
                    json.dump(spec, f)
            out = os.path.join(tmp, "BENCH_x.json")
            argv = ["bench_pairs.py", "--base", os.path.join(tmp, "base"),
                    "--head", os.path.join(tmp, "head"), "--pr", "x",
                    "--pairs", "2", "--out", out]
            with mock.patch.object(bench_pairs.subprocess, "run", fake_run), \
                    mock.patch.object(sys, "argv", argv), \
                    mock.patch("sys.stderr"), mock.patch("sys.stdout"):
                bench_pairs.main()
            with open(out) as f:
                record = json.load(f)
        # One 1 s build run per side, then 2 pairs of timed runs.
        self.assertEqual(seconds, [1, 1, 7, 7, 7, 7])
        self.assertEqual(record["seconds"], 7)
        self.assertEqual(record["workloads"]["w"]["seconds"], 7)

    def test_a_failed_end_state_check_stops_the_run(self):
        bad = fake_output(100, "s").replace('"correct": true', '"correct": false')
        with mock.patch.object(bench_pairs.subprocess, "run",
                               return_value=mock.Mock(returncode=0, stdout=bad,
                                                      stderr="")):
            with self.assertRaises(SystemExit):
                bench_pairs.run_side("/b", "/ob", "w", 1, 25)

    def test_cpu_seconds_are_those_of_the_waited_for_children(self):
        with mock.patch.object(bench_pairs.subprocess, "run",
                               return_value=mock.Mock(
                                   returncode=0, stdout=fake_output(100, "s"),
                                   stderr="")), \
                mock.patch.object(bench_pairs, "children_cpu_s",
                                  side_effect=[10.0, 12.5]):
            *_, cpu = bench_pairs.run_side("/b", "/ob", "w", 1, 25)
        self.assertEqual(cpu, 2.5)


class Gate(unittest.TestCase):
    """main() writes the record, prints one verdict line per workload and
    metric and one CPU/wall line per workload, and exits 1 when any verdict
    is "worse"."""

    def run_main(self, cycles):
        """`cycles[side][workload]`: cycles_per_s of pair 0, 1, ...; every
        run's setup_s is 2.0 and its wall time 10 s, and the run on seed i
        takes i + 1 CPU seconds on the base, twice that on the head.
        Returns (status, record, stdout lines)."""
        pairs = len(next(iter(cycles["base"].values())))
        spec = {"run_seconds": 3,
                "workloads": [{"name": w} for w in cycles["base"]],
                "end_to_end": [
                    {"name": "cycles_per_s", "better": "higher", "bound": 0.25},
                    {"name": "setup_s", "better": "lower", "bound": 0.25}]}
        with tempfile.TemporaryDirectory() as tmp:
            trees = {side: os.path.join(tmp, side) for side in bench_pairs.SIDES}
            for tree in trees.values():
                os.mkdir(tree)
                with open(os.path.join(tree, "BENCHMARK.json"), "w") as f:
                    json.dump(spec, f)

            def fake_run_side(tree, build_dir, workload, seed, seconds):
                side = "base" if tree == trees["base"] else "head"
                result = {"correct": True, "metrics": {
                    "cycles_per_s": {"value": cycles[side][workload][seed]},
                    "setup_s": {"value": 2.0}}}
                cpu = (seed + 1) * (1.0 if side == "base" else 2.0)
                return {"meta": {"commit": side}}, "end", result, 10.0, cpu

            out = os.path.join(tmp, "perf_pairs.json")
            argv = ["bench_pairs.py", "--base", trees["base"], "--head",
                    trees["head"], "--pr", "ci", "--pairs", str(pairs),
                    "--seed", "0", "--out", out]
            stdout = io.StringIO()
            with mock.patch.object(bench_pairs, "run_side", fake_run_side), \
                    mock.patch.object(sys, "argv", argv), \
                    mock.patch("sys.stderr"), mock.patch("sys.stdout", stdout):
                status = bench_pairs.main()
            with open(out) as f:
                record = json.load(f)
        return status, record, stdout.getvalue().splitlines()

    def test_a_worse_metric_exits_1_after_the_record_is_written(self):
        status, record, lines = self.run_main(
            {"base": {"a": [100] * 5, "b": [100] * 5},
             "head": {"a": [101] * 5, "b": [60] * 5}})
        self.assertEqual(status, 1)
        self.assertEqual(record["workloads"]["b"]["metrics"]["cycles_per_s"]
                         ["verdict"], "worse")
        self.assertIn("worse: b cycles_per_s 100 -> 60 (-40.0%), "
                      "change won 0/5 pairs", lines)

    def test_not_worse_and_unresolved_verdicts_exit_0(self):
        status, record, lines = self.run_main(
            {"base": {"a": [100] * 5, "b": [100] * 5},
             "head": {"a": [90] * 5, "b": [40, 70, 100, 130, 160]}})
        self.assertEqual(status, 0)
        verdicts = {(w, name): m["verdict"]
                    for w, rec in record["workloads"].items()
                    for name, m in rec["metrics"].items()}
        self.assertEqual(verdicts[("b", "cycles_per_s")], "unresolved")
        self.assertEqual(set(verdicts.values()), {"not_worse", "unresolved"})
        self.assertIn("unresolved: b cycles_per_s 100 -> 100 (+0.0%), "
                      "change won 2/5 pairs", lines)

    def test_one_line_per_workload_and_metric(self):
        _, _, lines = self.run_main(
            {"base": {"a": [58650] * 3, "b": [100] * 3},
             "head": {"a": [62350] * 3, "b": [100] * 3}})
        self.assertEqual(lines, [
            "not_worse: a cycles_per_s 58,650 -> 62,350 (+6.3%), change won 3/3 pairs",
            "not_worse: a setup_s 2 -> 2 (+0.0%), change won 0/3 pairs",
            "not_worse: b cycles_per_s 100 -> 100 (+0.0%), change won 0/3 pairs",
            "not_worse: b setup_s 2 -> 2 (+0.0%), change won 0/3 pairs",
            "cpu/wall: a base median 0.20 lowest 0.10, head median 0.40 lowest 0.20",
            "cpu/wall: b base median 0.20 lowest 0.10, head median 0.40 lowest 0.20"])

    def test_cpu_seconds_are_recorded_per_side_in_run_order(self):
        _, record, lines = self.run_main(
            {"base": {"a": [100] * 4}, "head": {"a": [100] * 4}})
        w = record["workloads"]["a"]
        self.assertEqual(w["run_cpu_s"], {"base": [1.0, 2.0, 3.0, 4.0],
                                          "head": [2.0, 4.0, 6.0, 8.0]})
        self.assertEqual(w["run_wall_s"], {"base": [10.0] * 4, "head": [10.0] * 4})
        # The CPU/wall lines follow the verdict lines.
        self.assertEqual(lines[-1], "cpu/wall: a base median 0.25 lowest 0.10, "
                                    "head median 0.50 lowest 0.20")
        self.assertTrue(all(l.startswith("not_worse:") for l in lines[:-1]))


if __name__ == "__main__":
    unittest.main()
