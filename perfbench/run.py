#!/usr/bin/env python3
"""Build and run perfbench, the simulator's fixed-window benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script builds perfbench (always Release) from the sources under src/
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and passes the program's output through; the last line of standard
output is the JSON result. Build output goes to standard error. For the
workload's recorded seed, the recorded end state (recorded.json) is passed
in as the expected value. Further options (--window, --warmup, --scenarios,
--expect-hash, --expect-delivered, --self-test-fault) go to the program as
they are.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cmesh4_tasp_lob", "mesh16_uniform", "campaign_fork", "mesh16_par4")
# Options under which the recorded end state does not apply, or is overridden.
SHAPE_OPTIONS = ("--window", "--warmup", "--scenarios", "--expect-hash", "--expect-delivered")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def check_call(cmd):
    # Build chatter goes to stderr: stdout carries only the program's lines.
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: simulator sources (src/) not found beside perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        check_call(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    check_call(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    return os.path.join(out, "perfbench")


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    """The git commit when ROOT is a work tree, else a digest of the sources."""
    try:
        git = ["git", "-C", ROOT]
        top = subprocess.run(git + ["rev-parse", "--show-toplevel"], capture_output=True,
                             text=True, check=True).stdout.strip()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                                 check=True).stdout.strip()
            dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                   capture_output=True, text=True, check=True).stdout.strip()
            return sha + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        pass
    return "src-sha256:" + source_digest()


def recorded(workload, seed, extra):
    if any(opt in extra for opt in SHAPE_OPTIONS):
        return []
    with open(os.path.join(HERE, "recorded.json")) as f:
        rec = json.load(f).get(workload)
    if rec is None or rec["seed"] != seed:
        return []
    return ["--expect-hash", rec["hash"], "--expect-delivered", str(rec["delivered"])]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        raise SystemExit(f"perfbench: build failed: {e}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(), *recorded(args.workload, args.seed, extra), *extra]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
