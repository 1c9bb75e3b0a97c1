"""Host-speed calibration for the end-to-end times.

On a shared virtual machine the host's speed drifts: over seconds to
minutes it ran the same code up to 2x slower, which moves every raw
time of a whole benchmark run.  The routine below does the same kind of
work as the simulator (slotted objects, a generator driven by `send`,
dict and list updates) and none of rtksim's code, so its best time in a
run measures how fast the host ran that run's Python, whatever rtksim
does.  End-to-end times are reported scaled to the reference speed:

    reported = best measured time * REFERENCE_S / best calibration time

On a 2-vCPU VM the run-to-run coefficient of variation of steady's best
wall time fell from 0.30 (raw) to 0.06 (scaled) while the host went
through a 2x slow stretch.
"""

from __future__ import annotations

import time

# best time of `routine` on the reference host (2-vCPU VM, fast state)
REFERENCE_S = 0.005


class _Node:
    __slots__ = ("a", "b")


def _counter():
    x = 0
    while True:
        x = yield x + 1


def routine() -> int:
    gen = _counter()
    next(gen)
    table = {}
    rows = []
    for i in range(15_000):
        node = _Node()
        node.a = i
        node.b = gen.send(i)
        table[i & 255] = node
        rows.append((node.a, node.b, "x"))
    return len(rows)


def sample() -> float:
    """Seconds one call of `routine` takes now."""
    t0 = time.perf_counter()
    routine()
    return time.perf_counter() - t0
