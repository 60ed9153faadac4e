"""Benchmark of the SMTp simulator: host time and simulated-machine counts.

    python3 perfbench/run.py --workload fft-smtp16x2 --seed 12345 \\
        --seconds 20 --trace 0

Runs one workload (see ``perfbench/workloads.py`` and the README) in
this process, with no worker pool:

1. starts ``perfbench/cell.py`` several times to time cold set-up;
2. reruns the cell once with the coherence checker on (untimed; it also
   fills lazily built caches such as the app µop templates);
3. times fresh runs of the cell, in host CPU seconds, for ``--seconds``
   (at least three runs), checking every run's output;
4. with ``--trace 1``, times one more run under the layer tracer.

Every time is scaled to a reference host speed by a yardstick chunk
timed alongside it (``perfbench/hostspeed.py``), so the spells in which
other tenants slow this host cancel out.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A run whose output check fails counts in ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _p in (str(ROOT / "src"), str(ROOT)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from perfbench.hostspeed import HostSpeed  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

#: Timed runs per invocation, at least.
MIN_RUNS = 3
#: Cold set-up probes per invocation (``setup_s`` is their median).
SETUP_PROBES = 9
#: Yardstick chunks a timed run samples at least.
MIN_SPEED_SAMPLES = 9


@dataclass
class Run:
    #: CPU seconds of the simulation at the reference host speed.
    cpu_s: float
    #: The same, as measured on this host.
    raw_cpu_s: float
    #: Median yardstick chunk time during the run.
    chunk_s: float
    stats: object  # repro.common.stats.MachineStats
    counts: Dict[str, float]
    digest: str


def sim_counts(stats, fabric) -> Dict[str, float]:
    """Per-layer counts of the simulated machine (exact, deterministic)."""
    nodes = stats.nodes
    threads = stats.app_threads()

    def total(get) -> int:
        return sum(get(n) for n in nodes)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    branches = sum(t.branches for t in threads)
    l2_hits = total(lambda n: n.l2.hits)
    l2_misses = total(lambda n: n.l2.misses)
    handlers = total(lambda n: n.protocol.handlers)
    return {
        "pipeline.committed_uops": stats.committed,
        "pipeline.squashed_uops": sum(t.squashed for t in threads)
        + total(lambda n: n.protocol.squashed),
        "pipeline.memory_stall_fraction": stats.memory_stall_fraction,
        "pipeline.br_mispredict_rate": ratio(
            sum(t.mispredicts for t in threads), branches),
        "caches.l1d_misses": total(lambda n: n.l1d.misses),
        "caches.l2_misses": l2_misses,
        "caches.l2_hit_ratio": ratio(l2_hits, l2_hits + l2_misses),
        "caches.bypass_allocations": total(lambda n: n.bypass_allocations),
        "memctrl.sdram_accesses": total(lambda n: n.sdram_accesses),
        "memctrl.sdram_busy_cycles": total(lambda n: n.sdram_busy_cycles),
        "memctrl.dircache_hit_ratio": ratio(
            total(lambda n: n.protocol.dir_cache_hits),
            total(lambda n: n.protocol.dir_cache_hits
                  + n.protocol.dir_cache_misses)),
        "protocol.handlers": handlers,
        "protocol.instructions": stats.protocol_instructions,
        "protocol.occupancy_mean": stats.protocol_occupancy_mean(),
        "protocol.retry_ratio": ratio(
            total(lambda n: n.protocol.retries + n.protocol.nacks_sent),
            handlers),
        "network.messages": fabric.messages_sent,
        "network.mean_latency_cycles": fabric.mean_latency(),
        "core.machine.skipped_cycle_ratio": ratio(
            stats.skipped_cycles, stats.cycles),
    }


def simulate(wl: Workload, seed: int, tracer=None, **model_kwargs) -> Run:
    """Build a fresh machine (caches empty) and run the cell to the end.

    Raises when the run misses its cycle budget, fails to quiesce or,
    with ``check_coherence=True``, fails the final coherence audit."""
    from perfbench.cell import build
    from repro.sim.driver import run_machine

    speed = HostSpeed()
    with tracer if tracer is not None else contextlib.nullcontext():
        machine, sources = build(wl, seed, **model_kwargs)
        if tracer is not None:
            tracer.reset()
            speed.on_sample = tracer.exclude
        # Free the previous runs' machines (reference cycles) now, so
        # no run pays for collecting another's garbage.
        gc.collect()
        t0 = time.thread_time()
        with speed.interleaved():
            stats = run_machine(machine, sources, wl.max_cycles)
        raw_cpu_s = time.thread_time() - t0 - speed.spent_s
    # A run too short for the timer still gets a yardstick.
    speed.sample(max(0, MIN_SPEED_SAMPLES - len(speed.samples)))
    fabric = machine.fabric
    blob = json.dumps(
        {"stats": stats.to_dict(),
         "network": [fabric.messages_sent, fabric.total_hops,
                     fabric.total_latency]},
        sort_keys=True,
    )
    return Run(raw_cpu_s * speed.scale(), raw_cpu_s, speed.median_s(),
               stats, sim_counts(stats, fabric),
               hashlib.sha256(blob.encode()).hexdigest())


def reference_problems(wl: Workload, seed: int, run: Run) -> List[str]:
    """Compare the run with the committed sweep row it must reproduce."""
    if wl.reference_row is None or (wl.seeded and seed != DEFAULT_SEED):
        return []
    fname, key = wl.reference_row
    with open(ROOT / fname) as f:
        cells = json.load(f)["cells"]
    rows = [c for c in cells if all(c.get(k) == v for k, v in key.items())]
    if len(rows) != 1:
        return [f"{fname}: expected one row matching {key}, found {len(rows)}"]
    want = rows[0]["stats"]["cycles"]
    if run.stats.cycles != want:
        return [f"sim_cycles {run.stats.cycles} != {want} in {fname}"]
    return []


class Bench:
    """One invocation: every run made, and the failed ones."""

    def __init__(self, wl: Workload, seed: int) -> None:
        self.wl = wl
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.reference: Optional[Run] = None

    def fail(self, what: str, problems: List[str]) -> None:
        self.failed += 1
        self.failures.extend(f"{what}: {p}" for p in problems)

    def attempt(self, what: str, **kwargs) -> Optional[Run]:
        """Run the cell once; return it if every output check passes."""
        self.attempted += 1
        try:
            run = simulate(self.wl, self.seed, **kwargs)
        except Exception:  # a failed run is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.fail(what, ["raised"])
            return None
        problems = []
        work = run.stats.committed - run.stats.spin_committed
        if work != self.wl.work_uops:
            problems.append(
                f"committed - spin_committed = {work}, "
                f"expected {self.wl.work_uops}")
        if self.reference is None:
            self.reference = run
            problems += reference_problems(self.wl, self.seed, run)
        elif run.digest != self.reference.digest:
            problems.append("MachineStats digest differs from the first run")
        if problems:
            self.fail(what, problems)
            return None
        return run


def cold_setup(wl: Workload, seed: int) -> Dict[str, float]:
    """Median of each set-up phase over fresh processes."""
    samples: Dict[str, List[float]] = {}
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "cell.py"), wl.name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        for k, v in json.loads(out.stdout.splitlines()[-1]).items():
            samples.setdefault(k, []).append(v)
    return {k: statistics.median(v) for k, v in samples.items()}


def host_info(runs: List[Run]) -> Dict[str, object]:
    """The host the result was measured on."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "chunk_s": statistics.median(r.chunk_s for r in runs),
    }


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> Dict:
    """Run the benchmark for one workload; return the result object."""
    from perfbench.tracer import LayerTracer

    bench = Bench(wl, seed)
    setup = cold_setup(wl, seed)
    bench.attempt("coherence-checked run", check_coherence=True)

    runs: List[Run] = []
    start = time.monotonic()
    while time.monotonic() - start < seconds or (
        len(runs) < MIN_RUNS and bench.attempted <= 4 * MIN_RUNS
    ):
        run = bench.attempt(f"timed run {bench.attempted}")
        if run is not None:
            runs.append(run)
    if not runs:
        return {"correct": False, "attempted": bench.attempted,
                "failed": bench.failed, "metrics": {},
                "failures": bench.failures}

    cpu = statistics.median(r.cpu_s for r in runs)
    ref = runs[0]
    detail: Dict[str, object] = {
        "workload": wl.name, "seed": seed if wl.seeded else None,
        "cpu_s_samples": [r.cpu_s for r in runs],
        "raw_cpu_s_samples": [r.raw_cpu_s for r in runs],
        "digest": ref.digest, "setup": setup, "host": host_info(runs),
    }
    if trace:
        tracer = LayerTracer()
        traced = bench.attempt("traced run", tracer=tracer)
        # Self times to the reference host speed, like every other time.
        scale = traced.cpu_s / traced.raw_cpu_s if traced is not None else 1.0
        layers = {
            k: v * scale if k.endswith(".self_s") else v
            for k, v in tracer.report().items()
        }
        idle = [x for x in wl.exercised if not layers[f"{x}.calls"]]
        if traced is not None and idle:
            bench.fail("traced run", [f"no calls into {idle}"])
        metrics = dict(layers)
        metrics.update(ref.counts)
        metrics.update({
            f"sim.setup.{k}": setup[k]
            for k in ("import_s", "build_machine_s", "app_sources_s")
        })
        metrics["trace_overhead"] = (
            traced.cpu_s / cpu if traced is not None else 0.0)
    else:
        stats = ref.stats
        instr = stats.committed + stats.protocol_instructions
        metrics = {
            "cpu_s": cpu,
            "sim_cycles_per_cpu_s": stats.cycles / cpu,
            "sim_instr_per_cpu_s": instr / cpu,
            "setup_s": setup["setup_s"],
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sim_cycles": stats.cycles,
            "passed_share": 1 - bench.failed / bench.attempted,
        }
    return {
        "correct": not bench.failed,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
        "failures": bench.failures,
        "detail": detail,
    }


def _spec(trace: bool) -> Dict[str, Dict[str, str]]:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="radix key seed (fft and ocean take no seed)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="how long to keep starting timed runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import repro.sim.driver  # noqa: F401
    except ImportError:
        print(f"error: cannot import the simulator from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    spec = _spec(bool(args.trace))
    for failure in result.pop("failures"):
        print(f"FAILED {failure}")
    if "detail" in result:
        print("detail " + json.dumps(result.pop("detail")))
    metrics = {}
    for name, value in result["metrics"].items():
        unit = spec[name]["unit"]
        print(f"{name:40s} {value:>18.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
