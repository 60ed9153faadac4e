"""Build one workload cell; run as a script, measure its cold set-up.

``python3 perfbench/cell.py <workload> <seed>`` prints one JSON object
with the CPU seconds a fresh process spends before cycle 1: importing
the simulator, building the machine (``sim.driver.build_machine``) and
building the application programs (``sim.experiments.app_sources``).
The benchmark starts it several times and reports the median, so work
moved into set-up shows in ``setup_s``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
for _p in (str(ROOT / "src"), str(ROOT)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from perfbench.hostspeed import HostSpeed  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

#: CPU seconds of set-up between yardstick chunks (set-up is short).
SPEED_EVERY_S = 0.005
#: Yardstick chunks per probe, at least.
MIN_SPEED_SAMPLES = 20


def make_machine(wl: Workload, **model_kwargs):
    from repro.sim.driver import build_machine

    return build_machine(wl.model, wl.n_nodes, wl.ways, **model_kwargs)


def make_sources(wl: Workload, seed: int, machine):
    from repro.sim.experiments import app_sources, preset_sizes

    params = dict(preset_sizes(wl.app, wl.preset))
    params.update(wl.sizes(seed))
    return app_sources(wl.app, machine, params)


def build(wl: Workload, seed: int, **model_kwargs):
    """Return ``(machine, sources)``: a fresh machine, caches empty."""
    machine = make_machine(wl, **model_kwargs)
    return machine, make_sources(wl, seed, machine)


def measure_setup(wl: Workload, seed: int) -> Dict[str, float]:
    """CPU seconds of each set-up phase, cold in a fresh process, scaled
    to the reference host speed by yardstick chunks interleaved with it."""
    speed = HostSpeed()

    def clock() -> float:
        return time.thread_time() - speed.spent_s

    with speed.interleaved(SPEED_EVERY_S):
        t0 = clock()
        import repro.core.protocol_thread  # noqa: F401  (loaded by install_cores)
        import repro.pipeline.core  # noqa: F401
        import repro.sim.driver  # noqa: F401
        import repro.sim.experiments  # noqa: F401

        t1 = clock()
        machine = make_machine(wl)
        t2 = clock()
        make_sources(wl, seed, machine)
        t3 = clock()
    speed.sample(max(0, MIN_SPEED_SAMPLES - len(speed.samples)))
    scale = speed.scale()
    return {
        "import_s": (t1 - t0) * scale,
        "build_machine_s": (t2 - t1) * scale,
        "app_sources_s": (t3 - t2) * scale,
        "setup_s": (t3 - t0) * scale,
        "raw_setup_s": t3 - t0,
    }


if __name__ == "__main__":
    print(json.dumps(measure_setup(WORKLOADS[sys.argv[1]], int(sys.argv[2]))))
