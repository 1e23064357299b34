#!/usr/bin/env python3
"""perfbench's own tests: a short smoke run of every workload, the recorded
end states, and negative cases proving each check fires.

    python3 perfbench/test_perfbench.py

Runs through run.py (which builds the program first), from any directory.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

# Short operations: a smoke run, not a measurement.
SHORT = {
    "cmesh4_tasp_lob": ["--warmup", "1000", "--window", "2000"],
    "mesh16_uniform": ["--warmup", "200", "--window", "200"],
    "mesh16_par4": ["--warmup", "200", "--window", "200"],
    "campaign_fork": ["--warmup", "200", "--scenarios", "4"],
}


def bench(workload, *extra, seed=7, trace=0, seconds=0.5, cwd=ROOT):
    """Run the benchmark; return (exit code, result or None, counts line, stderr)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    result = lines[-1] if lines and "correct" in lines[-1] else None
    counts = next((l for l in lines if "counts" in l), None)
    return proc.returncode, result, counts, proc.stderr


class Smoke(unittest.TestCase):
    def test_every_workload_passes_and_reports_every_metric(self):
        for workload in run.WORKLOADS:
            for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    code, res, _, err = bench(workload, *SHORT[workload], trace=trace)
                    self.assertEqual(code, 0, err)
                    self.assertTrue(res["correct"], err)
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(set(res["metrics"]), names)

    def test_counts_repeat_across_runs_and_modes(self):
        for workload in ("cmesh4_tasp_lob", "mesh16_uniform"):
            with self.subTest(workload=workload):
                runs = [bench(workload, *SHORT[workload], trace=t) for t in (0, 1, 0)]
                counts = [r[2] for r in runs]
                self.assertEqual(counts[0]["counts"], counts[1]["counts"])
                self.assertEqual(counts[0]["end"], counts[2]["end"])

    def test_parallel_step_ends_where_serial_does(self):
        serial = bench("mesh16_uniform", *SHORT["mesh16_uniform"])[2]
        parallel = bench("mesh16_par4", *SHORT["mesh16_par4"])[2]
        self.assertEqual(serial["end"], parallel["end"])
        self.assertEqual(serial["counts"], parallel["counts"])

    def test_recorded_seed_matches_its_recorded_end_state(self):
        with open(os.path.join(HERE, "recorded.json")) as f:
            rec = json.load(f)
        self.assertEqual(rec["mesh16_par4"], rec["mesh16_uniform"])
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, res, counts, err = bench(workload, seed=rec[workload]["seed"], seconds=0.1)
                self.assertEqual(code, 0, err)
                self.assertTrue(res["correct"], err)
                self.assertEqual(counts["end"]["hash"], rec[workload]["hash"])
                self.assertEqual(counts["end"]["delivered"], rec[workload]["delivered"])


class ChecksFire(unittest.TestCase):
    def assert_fails(self, workload, *extra, message):
        code, res, _, err = bench(workload, *SHORT[workload], *extra)
        self.assertEqual(code, 0, err)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertIn(message, err)

    def test_wrong_recorded_hash(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assert_fails(workload, "--expect-hash", "123456789abcdef0",
                                  message="!= recorded")

    def test_wrong_recorded_delivered_count(self):
        self.assert_fails("mesh16_uniform", "--expect-delivered", "1", message="!= recorded")

    def test_kill_switch_never_enabled(self):
        self.assert_fails("cmesh4_tasp_lob", "--self-test-fault", "killswitch-off",
                          message="attack not live")

    def test_packet_left_out_of_hop_model(self):
        self.assert_fails("mesh16_uniform", "--self-test-fault", "hop-model-drop",
                          message="hop check")

    def test_refuses_to_run_without_the_program_sources(self):
        base = os.path.join(os.path.dirname(run.build_dir()), "selftest")
        os.makedirs(base, exist_ok=True)
        bare = tempfile.mkdtemp(dir=base)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, res, _, _ = bench("mesh16_uniform", cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertIsNone(res)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
