"""Host speed sampler: rescales measured times to a reference host speed.

On a shared host the same pass can take 1.5x as long when other tenants
load the core, and that load changes both within a second and over
minutes: back-to-back processes running one campaign pass took 6.5 s to
12 s, while passes inside one process could agree within 2 %. So while the
workload runs, a timer interrupts it every TICK_INTERVAL_S and times a
fixed kernel; a phase's times are rescaled by how fast the kernel ran
during that phase:

    reported = measured * REFERENCE_TICK_S / mean kernel time in the phase

The kernel is pure Python of the kind the library runs (bitmask BFS over a
fixed random graph, list and deque traffic) and is owned by the benchmark,
so a change to the library cannot move it. Time spent in the sampler is
left out of ``clock()``, which the workloads and the tracer time with.

On the reference host (2-vCPU Intel Xeon VM, Python 3.11) the kernel's mean
time under typical load is about REFERENCE_TICK_S, so reported times read
as seconds on that host.
"""

from __future__ import annotations

import random
import signal
from collections import deque
from time import perf_counter

REFERENCE_TICK_S = 0.004
TICK_INTERVAL_S = 0.1
TICK_ROUNDS = 300

_rng = random.Random(20250925)
_MASKS = [_rng.getrandbits(64) for _ in range(64)]


def kernel(rounds: int = TICK_ROUNDS) -> int:
    """Fixed work, the same at every commit."""
    acc = 0
    for s in range(rounds):
        alive = _MASKS[s % 64] | (1 << (s % 64))
        seen = frontier = alive & -alive
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                nxt |= _MASKS[b.bit_length() - 1]
                f ^= b
            frontier = nxt & alive & ~seen
            seen |= frontier
        acc += seen.bit_count()
        queue = deque((s % 8,))
        prev = [-1] * 16
        while queue:
            u = queue.popleft()
            for v in (u + 1, u + 3):
                if v < 16 and prev[v] == -1:
                    prev[v] = u
                    queue.append(v)
        acc += sum(prev)
    return acc


class HostSpeed:
    """Samples the kernel on a timer while active (a context manager)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused = 0.0
        self._previous = None

    def clock(self) -> float:
        """Seconds, like perf_counter, without the time spent sampling."""
        return perf_counter() - self.paused

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        kernel()
        self.samples.append(perf_counter() - start)
        self.paused += perf_counter() - start

    def __enter__(self) -> "HostSpeed":
        self._tick(None, None)  # so that scale() always has a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """Position in the samples, to delimit a phase."""
        return len(self.samples)

    def scale(self, since: int = 0, until: int | None = None) -> float:
        """REFERENCE_TICK_S over the mean kernel time of samples[since:until]
        (of every sample when that phase has none); below 1 when the host
        ran slower than the reference."""
        window = self.samples[since:until] or self.samples
        return REFERENCE_TICK_S * len(window) / sum(window)
