"""Machine-speed scaling of the benchmark's end-to-end times.

The machine the benchmark runs on may be shared: its speed can swing by 2x
from one second to the next and drift by a quarter from one minute to the
next. So each timed step runs between two probes, a fixed piece of
pure-Python work from the benchmark itself, and its wall time is scaled to a
machine on which the probe takes NOMINAL_PROBE_S. Program changes do not
touch the probe, so they show in the scaled time as in the wall time.
"""

from __future__ import annotations

import time
from typing import Callable, TypeVar

T = TypeVar("T")

# The probe's typical wall time on the 2-core x86-64 container the benchmark
# was built on. A fixed constant: it only sets the unit of scaled times.
NOMINAL_PROBE_S = 0.004


def probe_s() -> float:
    """Wall time of a fixed piece of pure-Python work: dict updates and a sort."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(20000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
    sorted(table.items(), key=lambda kv: kv[1])
    return time.perf_counter() - start


def between_probes(step: Callable[[], T]) -> tuple[T, float]:
    """Run `step` between two probes; return its result and its time scale.

    The scale is NOMINAL_PROBE_S over the mean of the two probe times; a
    wall time measured inside `step`, times the scale, is in nominal seconds.
    """
    before = probe_s()
    result = step()
    after = probe_s()
    return result, NOMINAL_PROBE_S / ((before + after) / 2)
