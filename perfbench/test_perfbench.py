"""Fast self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Uses a two-node SMTp cell far smaller than the benchmark's workloads.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

from perfbench import cell, run
from perfbench.hostspeed import HostSpeed
from perfbench.tracer import LAYER_CLASSES, LayerTracer
from perfbench.workloads import LAYERS, Workload

TINY = Workload(
    name="tiny-fft-smtp2x2",
    app="fft",
    model="smtp",
    n_nodes=2,
    ways=2,
    preset="tiny",
    max_cycles=200_000,
    work_uops=2_916,
    exercised=(
        "core.machine", "common.events", "pipeline", "apps", "caches",
        "memctrl", "core.protocol_thread", "network",
    ),
)


def test_tracer_leaves_stats_bit_identical_and_restores_methods():
    from repro.pipeline.core import SMTCore

    original = SMTCore.__dict__["_step_nt"]
    plain = run.simulate(TINY, 0)
    tracer = LayerTracer()
    traced = run.simulate(TINY, 0, tracer=tracer)
    assert traced.digest == plain.digest
    assert SMTCore.__dict__["_step_nt"] is original
    layers = tracer.report()
    for layer in TINY.exercised:
        assert layers[f"{layer}.calls"] > 0, layer
        assert layers[f"{layer}.self_s"] > 0, layer
    assert 0 < layers["pipeline.retire_step_ratio"] < 1
    assert tuple(LAYER_CLASSES) == LAYERS


def test_host_speed_samples_while_work_runs():
    speed = HostSpeed()
    with speed.interleaved(every_s=0.01):
        t0 = time.thread_time()
        while time.thread_time() - t0 < 0.2:
            pass
    assert len(speed.samples) >= 5
    assert min(speed.samples) > 0
    assert speed.spent_s == sum(speed.samples)


def test_printed_metrics_match_benchmark_json(monkeypatch):
    # Set-up is probed in-process here; the benchmark starts cell.py.
    monkeypatch.setattr(run, "cold_setup", cell.measure_setup)
    for trace in (False, True):
        result = run.measure(TINY, 0, seconds=0, trace=trace)
        assert result["correct"], result["failures"]
        assert result["attempted"] == 4 + trace
        assert set(result["metrics"]) == set(run._spec(trace))


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ocean-1node",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert not out.stdout.strip()


def test_benchmark_json_names_are_unique():
    with open(run.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
