#!/usr/bin/env python3
"""Documentation checks, run as the `docs` CI job.

Two independent passes:

  --links      Every intra-repo markdown link ([text](path) and bare
               relative <path> links) in every tracked .md file must point
               at a file or directory that exists. External URLs and pure
               #anchors are ignored; a path#anchor link is checked for the
               path only.

  --commands   Every fenced shell command in docs/REPRODUCING.md that
               invokes a built binary (./build/...) must name a binary the
               build actually produced, and each such binary must survive a
               `--help` smoke run. Demo binaries whose source does not parse
               --help (they take positional output paths) are checked for
               existence only — running them with --help would execute the
               demo and litter the tree.

Exits nonzero with a per-problem listing on any failure, so a doc rename or
a CLI flag change cannot silently strand the reproduction guide.

Usage:
  python3 scripts/check_docs.py --links
  python3 scripts/check_docs.py --commands --build-dir build
  python3 scripts/check_docs.py --links --commands --build-dir build
"""

import argparse
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# [text](target) — target captured up to the closing paren (no nesting in
# our docs). Images (![alt](path)) match too, which is what we want.
MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE = re.compile(r"^```")
# A documented invocation of a built artifact, wherever it sits on the line
# (pipelines, `cd build && ...`, line continuations).
BUILD_CMD = re.compile(r"\./(?:build/)?(bench|examples|tests)/([A-Za-z0-9_]+)")


def tracked_markdown():
    """Tracked .md files present in the working tree. One deleted but not
    yet staged has no links to check; a link to it is still broken."""
    out = subprocess.run(
        ["git", "ls-files", "*.md"],
        cwd=REPO, capture_output=True, text=True, check=True)
    return [REPO / p for p in out.stdout.split() if (REPO / p).is_file()]


def check_links():
    problems = []
    for md in tracked_markdown():
        in_fence = False
        for lineno, line in enumerate(md.read_text().splitlines(), 1):
            if FENCE.match(line.strip()):
                in_fence = not in_fence
                continue
            if in_fence:
                continue  # code blocks may mention paths that runs create
            for target in MD_LINK.findall(line):
                if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:
                    continue
                path = target.split("#", 1)[0]
                if not path:  # pure anchor
                    continue
                resolved = (md.parent / path).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{md.relative_to(REPO)}:{lineno}: broken link "
                        f"'{target}' -> {resolved.relative_to(REPO) if resolved.is_relative_to(REPO) else resolved}")
    return problems


def fenced_commands(md_path):
    """Yield (lineno, line) for lines inside fenced code blocks."""
    in_fence = False
    for lineno, line in enumerate(md_path.read_text().splitlines(), 1):
        if FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            yield lineno, line


def parses_help(kind, name):
    """bench/tests binaries get flag parsing from google-benchmark/gtest;
    an example CLI gets the smoke run only if its source handles --help."""
    if kind in ("bench", "tests"):
        return True
    src = REPO / "examples" / f"{name}.cpp"
    return src.exists() and "--help" in src.read_text()


def check_commands(build_dir):
    reproducing = REPO / "docs" / "REPRODUCING.md"
    if not reproducing.exists():
        return [f"missing {reproducing.relative_to(REPO)}"]
    build = (REPO / build_dir).resolve()
    problems = []
    seen = {}
    for lineno, line in fenced_commands(reproducing):
        for kind, name in BUILD_CMD.findall(line):
            seen.setdefault((kind, name), lineno)
    if not seen:
        return [f"{reproducing.relative_to(REPO)}: no ./build/... commands "
                "found in fenced blocks (guide gutted?)"]
    for (kind, name), lineno in sorted(seen.items()):
        binary = build / kind / name
        if not binary.is_file():
            problems.append(
                f"docs/REPRODUCING.md:{lineno}: documented binary "
                f"{kind}/{name} was not built at {binary}")
            continue
        if not parses_help(kind, name):
            continue
        try:
            proc = subprocess.run(
                [str(binary), "--help"], capture_output=True, timeout=60)
        except subprocess.TimeoutExpired:
            problems.append(f"{kind}/{name}: --help hung (>60s)")
            continue
        if proc.returncode != 0:
            problems.append(
                f"{kind}/{name}: --help exited {proc.returncode}:\n"
                f"{proc.stderr.decode(errors='replace')[:500]}")
    print(f"checked {len(seen)} documented binaries")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--links", action="store_true")
    ap.add_argument("--commands", action="store_true")
    ap.add_argument("--build-dir", default="build")
    args = ap.parse_args()
    if not (args.links or args.commands):
        ap.error("nothing to do: pass --links and/or --commands")

    problems = []
    if args.links:
        problems += check_links()
    if args.commands:
        problems += check_commands(args.build_dir)

    if problems:
        print(f"\n{len(problems)} problem(s):", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print("docs OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
