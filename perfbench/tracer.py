"""Per-layer host-time tracer that wraps the simulator from outside.

Every plain method defined on each layer's classes is replaced, at class
level, by a wrapper that records one span per call: calls are counted
and the span's wall-clock duration, minus the time of the spans nested
inside it, is charged to the layer as self time.  Spans are folded into
per-layer totals as they close rather than kept one by one; the totals
are what the benchmark reports.

Nothing under ``src/`` changes.  The wrappers must be installed before
the machine is built, because components keep bound methods they
receive at construction (``Node`` holds ``fabric.send``); a machine
built inside the ``with`` block keeps calling the wrappers.  Leaving
the block restores the original methods.

Wheel callbacks are bound methods looked up when they are scheduled, so
their time lands on the layer that owns them, not on the event wheel.
Time in code no wrapper covers (closures, module-level functions)
counts toward the innermost enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Callable, Dict, List, Tuple

from perfbench.workloads import LAYERS

#: The classes whose methods make up each layer.
LAYER_CLASSES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "core.machine": (("repro.core.machine", "Machine"),),
    "common.events": (("repro.common.events", "EventWheel"),),
    "pipeline": (("repro.pipeline.core", "SMTCore"),),
    "apps": (
        ("repro.apps.program", "ThreadProgram"),
        ("repro.apps.compile", "CompiledProgram"),
    ),
    "caches": (("repro.caches.hierarchy", "CacheHierarchy"),),
    "memctrl": (
        ("repro.memctrl.controller", "MemoryController"),
        ("repro.memctrl.sdram", "SDRAM"),
    ),
    "memctrl.ppengine": (("repro.memctrl.ppengine", "PPEngine"),),
    "core.protocol_thread": (
        ("repro.core.protocol_thread", "SMTpPort"),
        ("repro.core.protocol_thread", "ProtocolThreadSource"),
    ),
    "network": (("repro.network.fabric", "Interconnect"),),
}

#: The core's per-cycle step entries (one is called per awake core-cycle).
STEP_ENTRIES = ("step", "_step_1t", "_step_nt")


def _retired(core) -> int:
    """Committed app µops plus protocol instructions so far on one node."""
    n = core.node.stats.protocol.instructions
    for t in core.threads:
        n += t.stats.committed
    return n


class LayerTracer:
    """Install with ``with LayerTracer() as tr:``; read :meth:`report`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, Callable]] = []
        self._stack: List[float] = []
        self._acc: Dict[str, List[float]] = {}
        self._steps = [0, 0]  # [outermost step calls, of which retired]
        self._in_step = False
        self.reset()

    def reset(self) -> None:
        """Zero the totals (e.g. after building the machine)."""
        for layer in LAYERS:
            acc = self._acc.setdefault(layer, [0.0, 0])
            acc[0] = 0.0
            acc[1] = 0
        self._steps[0] = self._steps[1] = 0

    # -- installation ------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        try:
            for layer, classes in LAYER_CLASSES.items():
                for module, name in classes:
                    cls = getattr(importlib.import_module(module), name)
                    self._patch(layer, cls)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, layer: str, cls: type) -> None:
        for name, fn in list(vars(cls).items()):
            if (
                name.startswith("__")
                or not inspect.isfunction(fn)
                or inspect.isgeneratorfunction(fn)
            ):
                continue
            if layer == "pipeline" and name in STEP_ENTRIES:
                wrapper = self._step_span(fn)
            else:
                wrapper = self._span(layer, fn)
            functools.update_wrapper(wrapper, fn)
            self._saved.append((cls, name, fn))
            setattr(cls, name, wrapper)

    def _restore(self) -> None:
        while self._saved:
            cls, name, fn = self._saved.pop()
            setattr(cls, name, fn)

    # -- spans ---------------------------------------------------------------
    def _span(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        acc = self._acc[layer]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                acc[0] += dur - stack.pop()
                acc[1] += 1
                if stack:
                    stack[-1] += dur

        return wrapper

    def _step_span(self, fn: Callable) -> Callable:
        """A pipeline span that also counts whether the outermost step
        call retired anything on its node (``step`` may delegate to a
        fused tier, which must not count twice)."""
        inner = self._span("pipeline", fn)
        steps = self._steps

        def wrapper(core, *args, **kwargs):
            if self._in_step:
                return inner(core, *args, **kwargs)
            before = _retired(core)
            self._in_step = True
            try:
                return inner(core, *args, **kwargs)
            finally:
                self._in_step = False
                steps[0] += 1
                if _retired(core) != before:
                    steps[1] += 1

        return wrapper

    def exclude(self, dur: float) -> None:
        """Charge ``dur`` seconds spent inside the innermost open span,
        on work that is not the simulator's, to no layer."""
        if self._stack:
            self._stack[-1] += dur

    # -- results -------------------------------------------------------------
    def report(self) -> Dict[str, float]:
        """``<layer>.self_s``, ``<layer>.calls`` and
        ``pipeline.retire_step_ratio``."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            self_s, calls = self._acc[layer]
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.calls"] = calls
        steps, retired = self._steps
        out["pipeline.retire_step_ratio"] = retired / steps if steps else 0.0
        return out
