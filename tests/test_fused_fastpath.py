"""The fused steps' wrong-path fill and latch-derived sleep plans.

* ``SMTCore._fetch_wp`` stamps a wrong path's filler µops in one pass;
  it must make exactly the µops and counter updates of the reference
  per-µop loop (``_fetch_thread`` → ``_make_synth``).
* ``SMTCore._build_ff_plan`` takes a ``_step_nt`` core's stall entries
  from the commit stage's ``_cm_stall`` latch when it is set, and the
  protocol-busy entry from the inline port test; the latch, and every
  plan, must equal the ``port.idle()``/``_retirable`` derivation.
* Routing, as deterministic work counts: the fused steps never call the
  per-µop wrong-path loop; the reference step does.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.program import KernelBuilder, ThreadProgram
from repro.isa.uop import Uop, UopKind
from repro.pipeline.core import WRONG_PATH_CAP, SMTCore
from repro.sim.driver import build_machine, run_machine
from repro.sim.experiments import app_sources, preset_sizes
from tests.conftest import small_machine


@pytest.fixture(scope="module")
def smtp_core():
    """A 1-way SMTp core: app thread 0, protocol thread 1."""
    m = small_machine("smtp", n_nodes=1)

    def body(k):
        k.alu()
        yield

    m.install_cores([[ThreadProgram(body, KernelBuilder(0, 0x400000),
                                    m.wheel)]])
    core = m.nodes[0].core
    assert core.proto_tid == 1 and core.decode_q.reserved == 1
    return core


def _fill(core, t, emitted, occupancy, app_part, budget, fetch):
    """Set up a wrong path of ``t`` over a partly full decode queue,
    run ``fetch(t, budget)``, and return everything it may change."""
    dq = core.decode_q
    dq.app.clear()
    dq.proto.clear()
    app_part = min(app_part, occupancy, dq.capacity - dq.reserved)
    dq.app.extend(Uop(UopKind.ALU, 0) for _ in range(app_part))
    dq.proto.extend(Uop(UopKind.ALU, 1, protocol=True)
                    for _ in range(occupancy - app_part))
    before = (len(dq.app), len(dq.proto))
    t.wrongpath_branch = Uop(UopKind.BRANCH, t.tid, protocol=t.protocol)
    t.wp_emitted = emitted
    t.wp_pc = 0x4000
    t.icount = 5
    core._seq = 1000
    core._worked = False
    left = fetch(t, budget)
    section = dq.proto if t.protocol else dq.app
    skip = before[1] if t.protocol else before[0]
    other = len(dq.app) if t.protocol else len(dq.proto)
    stream = [tuple(getattr(u, s) for s in Uop.__slots__)
              for u in list(section)[skip:]]
    counters = (t.wp_emitted, t.wp_pc, t.icount, core._seq, core._worked)
    return stream, counters, left, other


@settings(max_examples=300, deadline=None)
@given(
    protocol=st.booleans(),
    emitted=st.integers(0, WRONG_PATH_CAP),
    budget=st.integers(0, 8),
    occupancy=st.integers(0, 8),
    app_part=st.integers(0, 8),
)
def test_fetch_wp_matches_reference_loop(smtp_core, protocol, emitted,
                                         budget, occupancy, app_part):
    """Same µops (every slot: kind, thread, pc, seq, srcs, dest,
    protocol, pristine pipeline state), same counters, same leftover
    budget, for the app section and the protocol section with its
    reserved slot."""
    core = smtp_core
    t = core.threads[1 if protocol else 0]
    args = (core, t, emitted, occupancy, app_part, budget)
    ref = _fill(*args, core._fetch_thread)
    fused = _fill(*args, core._fetch_wp)
    assert fused == ref
    stream, counters, left, _ = ref
    assert all(u[0] is UopKind.SYNTH for u in stream)
    assert counters[0] <= WRONG_PATH_CAP and left == budget - len(stream)


def _smtp_run(app, protocol, n_nodes=4):
    machine = build_machine("smtp", n_nodes=n_nodes, ways=2,
                            protocol=protocol)
    sources = app_sources(app, machine, dict(preset_sizes(app, "tiny")))
    return run_machine(machine, sources, max_cycles=30_000_000)


def _plan_key(plan):
    """A plan as a multiset: the increments are independent."""
    return sorted((id(obj), attr) for obj, attr in plan)


def _full_plan(core):
    """The sleep plan derived from scratch: ``port.idle()`` for the
    protocol-busy entry, ``_retirable`` on every window head."""
    plan = []
    tp = core._tproto
    if tp is not None and tp.source.port is not None:
        if not tp.source.port.idle():
            plan.append((core.node.stats.protocol, "busy_cycles"))
    for t in core.threads:
        if t.rob and not core._retirable(t.rob[0]):
            kind = ("memory_stall_cycles" if t.rob[0].is_memory
                    else "other_stall_cycles")
            plan.append((t.stats, kind))
    return plan


@pytest.mark.parametrize(
    "app, protocol",
    [("fft", "smtp-bitvector"), ("fft", "msi"), ("fft", "migratory"),
     ("water", "smtp-bitvector")],
)
def test_stall_latch_equals_full_derivation(app, protocol, monkeypatch):
    """Every sleep plan, and the ``_cm_stall`` latch wherever the
    commit stage's stall-only path uses it, equals the
    ``port.idle()``/``_retirable`` derivation of the same moment; and
    both latch uses really happen."""
    monkeypatch.delenv("REPRO_APP_INTERP", raising=False)
    build = SMTCore._build_ff_plan
    commit = SMTCore._commit_nt
    taken = {"plan": 0, "commit": 0}

    def checked_plan(self):
        plan = build(self)
        if self._cm_stall is not None:
            taken["plan"] += 1
        assert _plan_key(plan) == _plan_key(_full_plan(self))
        return plan

    def checked_commit(self):
        cache = self._cm_stall
        if cache is not None:
            taken["commit"] += 1
            stalls = [e for e in _full_plan(self) if e[1] != "busy_cycles"]
            # No head retirable: every window's head charges a stall.
            assert len(stalls) == sum(1 for t in self.threads if t.rob)
            latched = [(s, "memory_stall_cycles" if mem
                        else "other_stall_cycles") for s, mem in cache]
            assert _plan_key(latched) == _plan_key(stalls)
        commit(self)

    monkeypatch.setattr(SMTCore, "_build_ff_plan", checked_plan)
    monkeypatch.setattr(SMTCore, "_commit_nt", checked_commit)
    _smtp_run(app, protocol)
    assert taken["plan"] > 0 and taken["commit"] > 0


def _count_calls(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(SMTCore, name)

        def counted(self, *args, _fn=fn, _name=name):
            counts[_name] += 1
            return _fn(self, *args)

        monkeypatch.setattr(SMTCore, name, counted)
    return counts


@pytest.mark.parametrize("interp", (False, True),
                         ids=("default", "app_interp"))
@pytest.mark.parametrize(
    "app, model, n_nodes, ways",
    [("fft", "smtp", 2, 2), ("ocean", "base", 1, 1)],
    ids=("fft-smtp-2way", "ocean-base-1way"),
)
def test_wrong_path_routing_work_counts(app, model, n_nodes, ways, interp,
                                        monkeypatch):
    """Wrong paths are squashed in both cells, yet the fused steps make
    no filler through the per-µop loop (and, with compiled sources,
    never enter ``_fetch_thread`` at all); the reference step makes
    every filler there."""
    if interp:
        monkeypatch.setenv("REPRO_APP_INTERP", "1")
    else:
        monkeypatch.delenv("REPRO_APP_INTERP", raising=False)
    counts = _count_calls(monkeypatch,
                          ("_make_synth", "_fetch_thread", "_fetch_wp"))
    machine = build_machine(model, n_nodes=n_nodes, ways=ways)
    sources = app_sources(app, machine, dict(preset_sizes(app, "tiny")))
    stats = run_machine(machine, sources, max_cycles=30_000_000)
    squashed = sum(t.squashed for t in stats.app_threads())
    assert squashed > 0
    if interp:
        assert counts["_make_synth"] > 0 and counts["_fetch_wp"] == 0
    else:
        assert counts["_make_synth"] == 0 and counts["_fetch_thread"] == 0
        assert counts["_fetch_wp"] > 0
