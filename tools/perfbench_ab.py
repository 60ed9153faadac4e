#!/usr/bin/env python
"""A/B the repo's benchmark between a base revision and the working tree.

Exports ``BASE`` (any git revision) into a temporary directory, then
runs ``perfbench/run.py --workload W --seconds S --trace 0`` alternately
in that tree and in this one, ``--pairs`` times per workload, with ``S``
the ``run_seconds`` of this tree's ``BENCHMARK.json``.  The order
inside a pair alternates (base first, then working tree first), so a
slow drift of the host's speed does not favour one side.

For each workload it prints every pair's host-scaled median ``cpu_s``
and relative change, the median over the pairs, and whether the two
trees agree on ``sim_cycles`` and on the stats digest of the ``detail``
line — a pure performance edit must leave both unchanged.

Exit status: 0 when every run passed its own checks and the trees agree
on cycles and digests; 1 otherwise (a failed run, or a behaviour change).

Usage::

    python tools/perfbench_ab.py BASE [--pairs 3] \\
        [--workloads ocean-1node,fft-smtp16x2]

The base tree is made with ``git archive``, so it holds only committed
files and leaves no worktree registration behind; it is deleted on exit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("ocean-1node", "fft-smtp16x2", "radix-base16")


@dataclass
class Result:
    """One perfbench invocation: its verdict and the numbers compared."""

    ok: bool
    cpu_s: float
    sim_cycles: float
    digest: str


def parse_output(stdout: str) -> Result:
    """Read a ``perfbench/run.py`` stdout: the ``detail`` line's digest
    and the last line's JSON result."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        return Result(False, float("nan"), float("nan"), "")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return Result(False, float("nan"), float("nan"), "")
    digest = ""
    for ln in lines:
        if ln.startswith("detail "):
            digest = json.loads(ln[len("detail "):]).get("digest", "")
    metrics = result.get("metrics", {})

    def value(name: str) -> float:
        return float(metrics.get(name, {}).get("value", float("nan")))

    return Result(bool(result.get("correct")) and bool(metrics),
                  value("cpu_s"), value("sim_cycles"), digest)


def run_once(tree: Path, workload: str, seconds: float) -> Result:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr[-2000:])
    return parse_output(proc.stdout)


def rel(base: float, change: float) -> float:
    return change / base - 1.0 if base else float("nan")


def row(label: object, base: float, change: float) -> str:
    return (f"   {label:>4} {base:>11.3f} {change:>13.3f} "
            f"{rel(base, change):>+8.1%}")


def summarize(pairs: Sequence[tuple]) -> bool:
    """Print the median row and the cross-tree checks of one workload's
    pairs; True when it is clean."""
    mb = statistics.median(b.cpu_s for b, _ in pairs)
    mc = statistics.median(c.cpu_s for _, c in pairs)
    print(row("med", mb, mc))
    failed = sum(not r.ok for pair in pairs for r in pair)
    cycles = {r.sim_cycles for pair in pairs for r in pair}
    digests = {r.digest for pair in pairs for r in pair}
    same_cycles = len(cycles) == 1
    same_digest = len(digests) == 1 and "" not in digests
    print(f"   sim_cycles {'match' if same_cycles else 'DIFFER'}: "
          f"{sorted(cycles)}")
    print(f"   digest     {'match' if same_digest else 'DIFFER'}: "
          f"{sorted(d[:16] for d in digests)}")
    if failed:
        print(f"   FAILED runs: {failed}")
    return not failed and same_cycles and same_digest


def export_tree(rev: str, dest: Path) -> None:
    """Write the committed files of ``rev`` under ``dest``."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               cwd=REPO, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise subprocess.CalledProcessError(archive.returncode, "git archive")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", help="git revision to compare against")
    ap.add_argument("--pairs", type=int, default=3,
                    help="base/working-tree run pairs per workload")
    ap.add_argument("--workloads", default=",".join(WORKLOADS),
                    help="comma- or space-separated workload names")
    args = ap.parse_args(argv)
    workloads = [w for w in args.workloads.replace(",", " ").split() if w]
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown or not workloads or args.pairs < 1:
        ap.error(f"need --pairs >= 1 and workloads from {WORKLOADS}; "
                 f"unknown: {unknown}")
    rev = subprocess.run(["git", "rev-parse", "--verify", args.base],
                         cwd=REPO, capture_output=True, text=True)
    if rev.returncode:
        ap.error(f"unknown revision {args.base!r}")
    sha = rev.stdout.strip()
    seconds = json.loads((REPO / "BENCHMARK.json").read_text())["run_seconds"]
    print(f"base {sha[:12]} vs working tree {REPO}", flush=True)

    tmp = Path(tempfile.mkdtemp(prefix="perfbench-ab-"))
    clean = True
    try:
        export_tree(sha, tmp)
        for workload in workloads:
            print(f"== {workload}")
            print(f"   {'pair':>4} {'base cpu_s':>11} {'change cpu_s':>13} "
                  f"{'rel':>8}", flush=True)
            pairs: List[tuple] = []
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                got: Dict[str, Result] = {}
                for side in order:
                    tree = tmp if side == "base" else REPO
                    got[side] = run_once(tree, workload, seconds)
                pairs.append((got["base"], got["change"]))
                print(row(i + 1, got["base"].cpu_s, got["change"].cpu_s),
                      flush=True)
            clean &= summarize(pairs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
