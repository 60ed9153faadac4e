"""Differential testing: event-driven scheduling vs dense polling.

The event-driven scheduler (PR "Event-driven core scheduling") must be
an *observationally invisible* optimisation: every statistic and every
protocol trace event must come out bit-identical to the dense
per-cycle polling reference (``REPRO_DENSE_STEP=1``).  These tests run
the same workload twice — once per mode — and diff:

* ``Machine.collect_stats().to_dict()`` (minus ``skipped_cycles``,
  which is the event mode's own bookkeeping and is 0 under dense), and
* the full :class:`~repro.sim.trace.ProtocolTracer` event stream
  (cycle, node, kind, addr, detail for every coherence event).

Coverage comes from two directions:

* a hypothesis property over random fuzz-stress op lists (seed,
  sharing pattern, model, node count all drawn), exercising
  ``run_ops`` + the event-mode ``quiesce`` drain, and
* full ``run_app`` runs of the tiny preset across all five Table 4
  machine models, exercising the event-mode ``run`` loop end to end
  (idle-cycle fast-forward, per-core skip, all_done gating).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import MODELS
from repro.fuzz.campaign import FUZZ_MACHINE_KWARGS, install_idle_cores
from repro.fuzz.stress import (
    SHARING_PATTERNS,
    StressConfig,
    generate_ops,
    run_ops,
)
from repro.sim.driver import build_machine, run_app
from repro.sim.trace import ProtocolTracer


def _comparable(stats) -> dict:
    d = stats.to_dict()
    # The only legal divergence: dense mode never skips a cycle.
    d.pop("skipped_cycles", None)
    return d


def _trace_stream(tracer: ProtocolTracer) -> list:
    return [asdict(ev) for ev in tracer.events]


# ----------------------------------------------------------------------
# Property: random fuzz-stress traffic, both modes, identical outcome.
# ----------------------------------------------------------------------

def _build_stress_machine(model: str, n_nodes: int, dense: bool):
    machine = build_machine(model, n_nodes=n_nodes, **FUZZ_MACHINE_KWARGS)
    machine.dense_step = dense
    if machine.mp.protocol_engine == "thread":
        install_idle_cores(machine)
    return machine


def _run_stress(model: str, n_nodes: int, ops, max_outstanding: int,
                dense: bool):
    machine = _build_stress_machine(model, n_nodes, dense)
    tracer = ProtocolTracer(machine)
    run_ops(machine, ops, max_outstanding=max_outstanding)
    machine.final_checks()
    return _comparable(machine.collect_stats()), _trace_stream(tracer), machine


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    model=st.sampled_from(MODELS),
    sharing=st.sampled_from(SHARING_PATTERNS),
    n_nodes=st.sampled_from((1, 2)),
    n_ops=st.integers(min_value=20, max_value=120),
)
def test_event_vs_dense_on_random_traffic(seed, model, sharing, n_nodes,
                                          n_ops):
    cfg = StressConfig(n_ops=n_ops, sharing=sharing)
    ops = generate_ops(seed, cfg, n_nodes)

    dense_stats, dense_trace, dense_m = _run_stress(
        model, n_nodes, ops, cfg.max_outstanding, dense=True)
    event_stats, event_trace, event_m = _run_stress(
        model, n_nodes, ops, cfg.max_outstanding, dense=False)

    assert dense_m.skipped_cycles == 0
    assert event_stats == dense_stats
    assert event_trace == dense_trace


# ----------------------------------------------------------------------
# Full applications: the event-mode run loop across all five models.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("model", MODELS)
def test_event_vs_dense_run_app(model, monkeypatch):
    def run(dense: bool):
        if dense:
            monkeypatch.setenv("REPRO_DENSE_STEP", "1")
        else:
            monkeypatch.delenv("REPRO_DENSE_STEP", raising=False)
        return run_app("water", model, n_nodes=1, preset="tiny")

    dense = run(dense=True)
    event = run(dense=False)
    assert dense.skipped_cycles == 0
    assert _comparable(event) == _comparable(dense)


def test_event_vs_dense_run_app_multinode(monkeypatch):
    # One cross-node cell: the regime where fast-forward fires most.
    def run(dense: bool):
        if dense:
            monkeypatch.setenv("REPRO_DENSE_STEP", "1")
        else:
            monkeypatch.delenv("REPRO_DENSE_STEP", raising=False)
        return run_app("fft", "base", n_nodes=2, preset="tiny")

    dense = run(dense=True)
    event = run(dense=False)
    assert event.skipped_cycles > 0, "event mode should skip idle cycles"
    assert _comparable(event) == _comparable(dense)


# ----------------------------------------------------------------------
# Reference vs fused: REPRO_APP_INTERP=1 (interpreted KernelBuilder feed,
# reference ``SMTCore.step``) vs the default (compiled superblocks,
# fused ``_step_1t``/``_step_nt``).
# ----------------------------------------------------------------------
#
# Unlike the dense/event differential above, the fused steps claim
# *complete* equality — they walk the same pipeline in a flattened
# order with quiet-stage latches and replay the same µop stream, so
# every field of MachineStats (including ``skipped_cycles``: both modes
# run the same event-driven scheduler) and the protocol trace tail must
# match bit for bit.

from repro.apps.program import KernelBuilder, ThreadProgram  # noqa: E402
from repro.sim.driver import run_machine  # noqa: E402
from repro.sim.experiments import app_sources, preset_sizes  # noqa: E402
from tests.conftest import small_machine  # noqa: E402

APPS = ("water", "fft", "fftw", "lu", "ocean", "radix")
PROTOCOLS = ("smtp-bitvector", "msi", "migratory")
TRACE_TAIL = 512


@contextmanager
def _env_flag(name: str, on: bool):
    """Set ``name=1`` (or unset it) for the duration of the block."""
    old = os.environ.get(name)
    if on:
        os.environ[name] = "1"
    else:
        os.environ.pop(name, None)
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = old


def _run_app_traced(app: str, model: str, n_nodes: int, interp: bool,
                    ways: int = 1, protocol: str = "smtp-bitvector"):
    with _env_flag("REPRO_APP_INTERP", interp):
        machine = build_machine(model, n_nodes=n_nodes, ways=ways,
                                protocol=protocol)
        tracer = ProtocolTracer(machine, ring=True, max_events=TRACE_TAIL)
        sources = app_sources(app, machine, dict(preset_sizes(app, "tiny")))
        stats = run_machine(machine, sources, max_cycles=30_000_000)
        return stats.to_dict(), _trace_stream(tracer)


@pytest.mark.parametrize("model", MODELS)
def test_interp_vs_compiled_all_apps(model):
    """All six workloads, one model per test id: complete stats +
    trace-tail bit-identity between the reference and the fused core."""
    for app in APPS:
        interp_stats, interp_trace = _run_app_traced(
            app, model, n_nodes=1, interp=True)
        compiled_stats, compiled_trace = _run_app_traced(
            app, model, n_nodes=1, interp=False)
        assert compiled_stats == interp_stats, f"{app}/{model}: stats diverge"
        assert compiled_trace == interp_trace, f"{app}/{model}: trace diverges"


@settings(max_examples=8, deadline=None)
@given(
    app=st.sampled_from(APPS),
    model=st.sampled_from(MODELS),
    n_nodes=st.sampled_from((1, 2)),
)
def test_interp_vs_compiled_property(app, model, n_nodes):
    """Random (app, model, nodes) cells: the compiled feed and fused
    core are observationally invisible, multi-node included."""
    interp_stats, interp_trace = _run_app_traced(
        app, model, n_nodes, interp=True)
    compiled_stats, compiled_trace = _run_app_traced(
        app, model, n_nodes, interp=False)
    assert compiled_stats == interp_stats
    assert compiled_trace == interp_trace


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fused_vs_interp_smtp_all_bundles(protocol):
    """SMTp 2-way cells (``_step_nt`` with the protocol thread) under
    every registered coherence bundle: full stats + trace-tail
    bit-identity against the reference."""
    for app in ("fft", "water"):
        interp_stats, interp_trace = _run_app_traced(
            app, "smtp", n_nodes=2, interp=True, ways=2, protocol=protocol)
        fused_stats, fused_trace = _run_app_traced(
            app, "smtp", n_nodes=2, interp=False, ways=2, protocol=protocol)
        assert fused_stats == interp_stats, \
            f"{app}/{protocol}: stats diverge"
        assert fused_trace == interp_trace, \
            f"{app}/{protocol}: trace diverges"


def test_fused_vs_interp_multiway_no_protocol_thread():
    """ways>=2 cells on a model *without* a protocol thread also take
    ``_step_nt`` (two app threads); same complete-equality claim."""
    interp_stats, interp_trace = _run_app_traced(
        "ocean", "base", n_nodes=2, interp=True, ways=2)
    fused_stats, fused_trace = _run_app_traced(
        "ocean", "base", n_nodes=2, interp=False, ways=2)
    assert fused_stats == interp_stats
    assert fused_trace == interp_trace


@settings(max_examples=6, deadline=None)
@given(
    app=st.sampled_from(APPS),
    model=st.sampled_from(("smtp", "base")),
    protocol=st.sampled_from(PROTOCOLS),
    n_nodes=st.sampled_from((1, 2)),
)
def test_fused_vs_interp_property(app, model, protocol, n_nodes):
    """Random (app, model, bundle, nodes) 2-way cells: the fused path
    is observationally invisible wherever it engages."""
    interp_stats, interp_trace = _run_app_traced(
        app, model, n_nodes, interp=True, ways=2, protocol=protocol)
    fused_stats, fused_trace = _run_app_traced(
        app, model, n_nodes, interp=False, ways=2, protocol=protocol)
    assert fused_stats == interp_stats
    assert fused_trace == interp_trace


def _mixed_body(k):
    """Every µop class a single app thread can issue: int/fp chains,
    the unpipelined FP divider, loads (forwarded and missing), stores,
    prefetches, an atomic, and a branch pattern that mispredicts."""
    top = k.here()
    for i in range(48):
        k.set_pc(top)
        a = k.alu()
        b = k.mul(a)
        f = k.falu()
        if i % 8 == 0:
            k.fdiv(f)
        k.store(0x2000 + 64 * (i % 5), b, value=i)
        k.load(0x2000 + 64 * (i % 5))
        k.load(0x8000 + 4096 * i, a)
        if i % 7 == 0:
            k.prefetch(0x40000 + 64 * i)
        if i % 16 == 5:
            k.atomic(0x3000, "fai", 1)
        k.branch(i % 3 == 0, top if i % 3 else top + 512)
        yield


def test_threadprogram_single_thread_reference_vs_fused():
    """A single-thread core fed by a hand-built ThreadProgram (as unit
    tests and fuzzing build them) runs ``_step_nt`` by default and the
    reference step under REPRO_APP_INTERP=1: complete MachineStats
    equality."""
    outcomes = []
    for interp in (True, False):
        with _env_flag("REPRO_APP_INTERP", interp):
            m = small_machine("base", n_nodes=1)
            prog = ThreadProgram(_mixed_body, KernelBuilder(0, 0x400000),
                                 m.wheel)
            m.install_cores([[prog]])
            core = m.nodes[0].core
            assert core._use_nt is (not interp)
            m.run(400_000)
            assert m.all_done()
            m.quiesce()
            outcomes.append(m.collect_stats())
    ref, fused = outcomes
    t = ref.app_threads()[0]
    assert t.committed > 0 and t.squashed > 0 and t.prefetches > 0
    assert fused.to_dict() == ref.to_dict()


@pytest.mark.parametrize("interp", (False, True),
                         ids=("default", "app_interp"))
@pytest.mark.parametrize("ways", (1, 2))
@pytest.mark.parametrize("model", MODELS)
def test_core_step_routing(model, ways, interp):
    """Every core runs exactly one of the two fused steps by default,
    and the reference step under REPRO_APP_INTERP=1."""
    with _env_flag("REPRO_APP_INTERP", interp):
        machine = build_machine(model, n_nodes=2, ways=ways)
        machine.install_cores(
            app_sources("fft", machine, dict(preset_sizes("fft", "tiny"))))
        cores = [n.core for n in machine.nodes]
        assert cores and all(c is not None for c in cores)
        for core in cores:
            if interp:
                assert not core._use_1t and not core._use_nt
            else:
                assert core._use_1t != core._use_nt


# ----------------------------------------------------------------------
# Active-set scheduling: the per-node wake sets vs dense stepping.
# ----------------------------------------------------------------------


def _run_smt_dense(app: str, protocol: str, n_nodes: int, dense: bool):
    with _env_flag("REPRO_DENSE_STEP", dense):
        return _run_app_traced(app, "smtp", n_nodes, interp=False, ways=2,
                               protocol=protocol)


@settings(max_examples=4, deadline=None)
@given(
    app=st.sampled_from(("fft", "water", "radix")),
    protocol=st.sampled_from(PROTOCOLS),
)
def test_active_set_vs_dense_congruence_n4(app, protocol):
    """The active-set scheduler (sleeping cores/MCs dropped from the
    per-cycle scan) must never skip a cycle the dense reference
    executes with work in it: at n=4 every architectural statistic and
    the trace tail match REPRO_DENSE_STEP=1 bit for bit, with only
    ``skipped_cycles`` (the event mode's own bookkeeping) exempt."""
    dense_stats, dense_trace = _run_smt_dense(app, protocol, 4, dense=True)
    event_stats, event_trace = _run_smt_dense(app, protocol, 4, dense=False)
    assert dense_stats.pop("skipped_cycles") == 0
    assert event_stats.pop("skipped_cycles") > 0, \
        "active set should be skipping idle cycles at n=4"
    assert event_stats == dense_stats
    assert event_trace == dense_trace
