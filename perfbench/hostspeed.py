"""Host-speed yardstick: scale CPU seconds to a reference host speed.

Other tenants of a shared host slow the same run by up to ~40%, in
spells that last from seconds to minutes.  A median over one
invocation cannot cancel a spell that covers the whole invocation, so
the benchmark times a fixed pure-Python chunk of work, interleaved with the
work it measures, and scales that work's CPU time by the chunk's mean
speed, ``REFERENCE_S / chunk time``.  A spell slows the chunk and the
simulator alike and cancels out; a change to the simulator does not
touch the chunk.  The chunk lives here, not under ``src/``, so no
change to the program can move it.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from typing import Callable, Iterator, List, Optional

#: Scaled times read as CPU seconds on a host where one chunk takes
#: this long.  A round figure between the chunk's times in the fast and
#: slow spells of the VM the bounds were set on (2-vCPU Xeon, Python
#: 3.11.7): ~0.5 ms and ~1.2 ms.
REFERENCE_S = 0.001


class _Cell:
    __slots__ = ("state", "hits")

    def __init__(self) -> None:
        self.state = 0
        self.hits = 0

    def touch(self, v: int) -> int:
        self.hits += 1
        self.state = (self.state * 31 + v) & 0xFFFF
        return self.state


#: Cells the chunk's scattered part reads at random.  With their index
#: they take ~2 MB, more than a core's private caches hold.
POOL_CELLS = 1 << 14


class Chunk:
    """Fixed work of the kinds the simulator does most: allocation,
    attribute access, method calls, dict updates, branches and integer
    math, part on a few cells that stay cached and part scattered over a
    pool that does not.  Either part alone tracks the simulator's speed
    worse: the cached part speeds up more than the simulator in a fast
    spell, the scattered part less."""

    def __init__(self) -> None:
        self.pool = [_Cell() for _ in range(POOL_CELLS)]
        self.index = {i * 2654435761 & 0xFFFFFFF: i for i in range(POOL_CELLS)}
        self.keys = list(self.index)

    def __call__(self) -> int:
        cells = [_Cell() for _ in range(64)]
        table = {}
        acc = 0
        for i in range(1000):
            s = cells[(i * 7) & 63].touch(i)
            k = s & 255
            table[k] = table.get(k, 0) + 1
            if s & 1:
                acc += len(table)
            else:
                acc ^= k
        pool, index, keys = self.pool, self.index, self.keys
        mask = POOL_CELLS - 1
        x = 12345
        for _ in range(500):
            x = (x * 1103515245 + 12345) & mask
            acc += pool[x].touch(x) + index[keys[(x * 7) & mask]]
        return acc


#: Untimed chunks run first.
WARMUP_CHUNKS = 5
#: CPU seconds of work between interleaved chunks.
EVERY_S = 0.02


class HostSpeed:
    """Chunk times (thread CPU seconds) sampled before, after or while
    some work runs."""

    def __init__(self) -> None:
        self.chunk = Chunk()
        # Untimed: the interpreter specialises the chunk's code on its
        # first calls, which run slower than the rest.
        for _ in range(WARMUP_CHUNKS):
            self.chunk()
        self.samples: List[float] = []
        #: CPU seconds spent in chunks, for the caller to subtract.
        self.spent_s = 0.0
        #: Called with each chunk's wall-clock seconds (the tracer
        #: charges them to no layer).
        self.on_sample: Optional[Callable[[float], None]] = None

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            w0 = time.perf_counter()
            t0 = time.thread_time()
            self.chunk()
            dt = time.thread_time() - t0
            self.samples.append(dt)
            self.spent_s += dt
            if self.on_sample is not None:
                self.on_sample(time.perf_counter() - w0)

    @contextlib.contextmanager
    def interleaved(self, every_s: float = EVERY_S) -> Iterator["HostSpeed"]:
        """Sample one chunk per ``every_s`` CPU seconds of the work run
        inside the block (a ``SIGPROF`` interval timer; the handler runs
        between bytecodes, so the work's own state is never touched).

        Time the block with ``time.thread_time``: while the timer is
        armed, Linux may advance the process CPU clock only at ticks."""
        busy = False

        def handler(signum, frame) -> None:
            nonlocal busy
            if busy:
                return
            busy = True
            try:
                self.sample()
            finally:
                busy = False

        old = signal.signal(signal.SIGPROF, handler)
        signal.setitimer(signal.ITIMER_PROF, every_s, every_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, old)

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor taking this host's CPU seconds to reference seconds.

        The host's speed flips between spells within a second, so a
        median chunk time would read one spell's speed.  Chunks sampled
        at equal CPU intervals weight each interval alike: the mean of
        their speeds scales the whole."""
        return statistics.fmean(REFERENCE_S / s for s in self.samples)
