"""The benchmark's workloads: fixed simulator cells and what each must show.

Pure data, no simulator imports, so the cold set-up probe can read a
workload before it starts its clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Seed passed to radix when ``--seed`` is not given.
DEFAULT_SEED = 12345

#: Seed kept out of tuning: a claimed gain must also hold on it.
HELD_OUT_SEED = 20040619

#: Simulator layers, named after the modules under ``src/repro``.
LAYERS = (
    "core.machine",
    "common.events",
    "pipeline",
    "apps",
    "caches",
    "memctrl",
    "memctrl.ppengine",
    "core.protocol_thread",
    "network",
)


@dataclass(frozen=True)
class Workload:
    """One machine/application cell.  Every run builds a fresh machine,
    so the modelled caches, directory and network start empty."""

    name: str
    app: str
    model: str
    n_nodes: int
    ways: int
    preset: str
    #: Cycle budget: a run that has not finished by then fails.
    max_cycles: int
    #: ``committed - spin_committed`` over all app threads.  Spin µops
    #: depend on protocol timing; the rest of the count does not.
    work_uops: int
    #: Layers whose traced ``calls`` must be nonzero.
    exercised: Tuple[str, ...]
    #: True when the app reads ``sizes["seed"]`` (radix only).
    seeded: bool = False
    #: (file, row selector) of a committed sweep row whose ``cycles``
    #: the default-seed run must reproduce.
    reference_row: Optional[Tuple[str, Dict[str, object]]] = None

    def sizes(self, seed: int) -> Dict[str, int]:
        return {"seed": seed} if self.seeded else {}


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # App-dominated single node on the single-thread fused tier
        # (_step_1t): no network messages, ~6.6k protocol instructions
        # against ~180k app µops.  Loads pipeline, caches and apps; a
        # change confined to the multi-thread tier, the network or the
        # protocol thread must read "no change" here.
        Workload(
            name="ocean-1node",
            app="ocean",
            model="base",
            n_nodes=1,
            ways=1,
            preset="default",
            max_cycles=1_000_000,
            work_uops=180_236,
            exercised=(
                "core.machine", "common.events", "pipeline", "apps",
                "caches", "memctrl", "memctrl.ppengine",
            ),
        ),
        # Two app threads plus the protocol thread per fused
        # multi-threaded core (_step_nt) on 16 nodes, with read-shared
        # transpose traffic: the heaviest pipeline load and the only
        # cell that runs core.protocol_thread.
        Workload(
            name="fft-smtp16x2",
            app="fft",
            model="smtp",
            n_nodes=16,
            ways=2,
            preset="tiny",
            max_cycles=200_000,
            work_uops=4_404,
            exercised=(
                "core.machine", "common.events", "pipeline", "apps",
                "caches", "memctrl", "core.protocol_thread", "network",
            ),
            reference_row=(
                "BENCH_fig8.json",
                {"app": "fft", "model": "smtp", "n_nodes": 16, "ways": 2,
                 "preset": "tiny"},
            ),
        ),
        # Coherence on the embedded PP with all-to-all scattered writes
        # (invalidations, writebacks).  Cores mostly sleep, so the run
        # loop, event wheel, memory controller, PP and network carry the
        # most weight.
        Workload(
            name="radix-base16",
            app="radix",
            model="base",
            n_nodes=16,
            ways=1,
            preset="tiny",
            max_cycles=400_000,
            work_uops=10_514,
            exercised=(
                "core.machine", "common.events", "pipeline", "apps",
                "caches", "memctrl", "memctrl.ppengine", "network",
            ),
            seeded=True,
        ),
    )
}
