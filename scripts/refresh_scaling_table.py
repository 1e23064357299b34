#!/usr/bin/env python3
"""Regenerate the fabric-size scaling table in docs/SCALING.md section 5.

Reads the JSON emitted by bench_topology_scaling and rewrites the block
between the `topo-scaling:begin` / `topo-scaling:end` markers in place,
so the published curve always matches a real measurement:

    cmake --build build -j --target bench_topology_scaling
    ./build/bench/bench_topology_scaling --benchmark_repetitions=5 \
        --benchmark_out=topo_scaling.json --benchmark_out_format=json
    python3 scripts/refresh_scaling_table.py topo_scaling.json

Each cell is the median over the per-repetition rows with the minimum
beside it, so one slow repetition on a shared host shows as a low minimum
instead of moving the headline number. The environment note in the
generated block records how many cores the measurement host had, so an
under-provisioned rerun is visible in the doc rather than silently
presented as a speedup curve.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import statistics
import sys

BEGIN = "<!-- topo-scaling:begin"
END = "<!-- topo-scaling:end -->"
THREADS = (1, 2, 4, 8)
# (row label, benchmark prefix, size arg, router count)
ROWS = (
    ("mesh 8×8", "BM_MeshScaling", 8, 64),
    ("mesh 16×16", "BM_MeshScaling", 16, 256),
    ("mesh 32×32", "BM_MeshScaling", 32, 1024),
    ("mesh 64×64", "BM_MeshScaling", 64, 4096),
)


def thousands(x: float) -> str:
    """Integral cycles/sec with a space as the thousands separator."""
    return f"{int(round(x)):,}".replace(",", " ")


def load_rates(path: pathlib.Path) -> tuple[dict[str, list[float]], dict]:
    """name -> items_per_second of every repetition."""
    doc = json.loads(path.read_text())
    rates: dict[str, list[float]] = {}
    for bench in doc["benchmarks"]:
        if bench.get("run_type") == "aggregate":
            continue
        if "items_per_second" in bench:
            # "BM_MeshScaling/8/1/process_time/real_time" -> first three
            # segments; the modifier suffixes vary with benchmark flags.
            name = "/".join(bench["name"].split("/")[:3])
            rates.setdefault(name, []).append(bench["items_per_second"])
    return rates, doc.get("context", {})


def cell(values: list[float]) -> str:
    """Median of the repetitions, then their minimum."""
    return (f"{thousands(statistics.median(values))} "
            f"({thousands(min(values))})")


def build_block(rates: dict[str, list[float]], context: dict) -> str:
    cpus = context.get("num_cpus", "?")
    reps = min((len(v) for v in rates.values()), default=0)
    note = (
        f"Measured curve ({cpus}-core host, {reps} repetitions;\n"
        f"`BM_MeshScaling/k/threads`, cycles/sec, median (minimum)):"
    )
    lines = [
        BEGIN + " (scripts/refresh_scaling_table.py rewrites this block) -->",
        note,
        "",
        "| fabric | routers | 1 thread | 2 | 4 | 8 |",
        "|--------|--------:|---------:|--:|--:|--:|",
    ]
    missing = []
    for label, prefix, size, routers in ROWS:
        cells = []
        for t in THREADS:
            name = f"{prefix}/{size}/{t}"
            if name not in rates:
                missing.append(name)
                cells.append("—")
            else:
                cells.append(cell(rates[name]))
        lines.append(f"| {label} | {routers} | " + " | ".join(cells) + " |")
    lines.append(END)
    if missing:
        sys.exit(
            "refresh_scaling_table: benchmarks missing from the JSON: "
            + ", ".join(missing)
        )
    return "\n".join(lines)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("json_path", type=pathlib.Path,
                    help="bench_topology_scaling --benchmark_out file")
    ap.add_argument("--doc", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parent.parent
                    / "docs" / "SCALING.md")
    ap.add_argument("--check", action="store_true",
                    help="fail instead of rewriting when the doc is stale")
    args = ap.parse_args()

    rates, context = load_rates(args.json_path)
    block = build_block(rates, context)

    text = args.doc.read_text()
    pattern = re.compile(
        re.escape(BEGIN) + r".*?" + re.escape(END), re.DOTALL
    )
    if not pattern.search(text):
        sys.exit(f"refresh_scaling_table: no marker block in {args.doc}")
    updated = pattern.sub(lambda _: block, text, count=1)
    if args.check:
        if updated != text:
            sys.exit(f"{args.doc} is stale; rerun without --check")
        print(f"{args.doc}: up to date")
        return
    if updated != text:
        args.doc.write_text(updated)
        print(f"{args.doc}: table refreshed")
    else:
        print(f"{args.doc}: already up to date")


if __name__ == "__main__":
    main()
