"""Machine-speed gauge for a shared, noisy machine.

On a 2-CPU machine shared with other tenants the same Python code runs
up to 1.5x slower for tens of seconds at a time.  A fixed reference
kernel, timed between requests and outside their timed regions,
tracks that speed.  A request's time is scaled by NOMINAL_S over the
median of the WINDOW kernel times up to just after it, i.e. reported at
the speed where the kernel takes NOMINAL_S.  No program change can move
the kernel, so the scaling removes the machine's drift and nothing else.

Set-up time is gauged the same way, with a fresh interpreter that runs
nothing (REFERENCE_START) in place of the kernel: it pays the same
process start and site import as the set-up run, and no program change
can move it either.
"""
from __future__ import annotations

import json
import statistics
import time
from collections import deque

NOMINAL_S = 0.0012
WINDOW = 9

REFERENCE_START = "pass"
NOMINAL_START_S = 0.04


def reference_kernel() -> int:
    """About 1.2 ms of the dict, tuple, sort, string formatting and JSON
    work that freeop's requests are made of."""
    table: dict = {}
    for i in range(1000):
        key = (i % 61, str(i))
        table[key] = table.get(key, 0) + i * i
    items = sorted(table.items(), key=lambda kv: (kv[0][1], kv[1]))
    return len(json.dumps([f"n[{k[0]}]({k[1]}, {v})" for k, v in items]))


class Gauge:
    def __init__(self):
        self.times: deque[float] = deque(maxlen=WINDOW)

    def sample(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.times.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor that turns a time measured now into one at nominal speed."""
        return NOMINAL_S / statistics.median(self.times)


def scaled_start(measured: list[float], reference: list[float]) -> float:
    """Median of fresh-interpreter times, at the speed where an interpreter
    running REFERENCE_START takes NOMINAL_START_S; the reference runs are
    interleaved with the measured ones, so both see the same machine."""
    return statistics.median(measured) * NOMINAL_START_S / statistics.median(reference)
