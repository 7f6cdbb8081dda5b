"""Host pace: how fast this host runs a fixed piece of Python right now.

The benchmark's host is shared.  Its speed moves by up to ~40 % in phases
of about a second to several minutes, and that speed change reaches the
program as slower execution, not as time off the CPU.  A 1 ms probe of
fixed pure-Python work runs before the first item of a pass and after
every item (outside the item's timing), and seven times after set-up.
Every time of a pass, or the set-up time, is then rescaled to the pace at
which the probe takes ``REFERENCE_S``:

    normalised = raw * REFERENCE_S / (median probe time of the pass)

so the benchmark's times read in seconds at one fixed host pace, and a
change of the program moves them while a change of the host mostly does
not.  The raw times are printed and stored beside them.
"""

from __future__ import annotations

import statistics
from time import perf_counter

LOOPS = 15000
# The probe's time on the host the benchmark was written on, fast phase
# (0.97-1.0 ms; up to 1.4 ms in slow phases).  It only fixes the unit.
REFERENCE_S = 1.0e-3


def probe() -> float:
    """Time one run of the fixed work, in seconds."""
    start = perf_counter()
    s = 0
    for i in range(LOOPS):
        s += i * i % 7
    return perf_counter() - start


def settle() -> float:
    """Median of seven probes in a row: the pace at this moment."""
    return statistics.median(probe() for _ in range(7))


def normalise_pass(wall_s: float, item_s: list[float], probe_s: list[float]) -> dict:
    """Raw and normalised times of one pass, whose items ran between
    consecutive probes.

    ``wall_s`` is the raw pass time including the probes run inside it
    (every probe but the first); the raw wall time leaves them out.  Every
    time of the pass is rescaled by the pass's median probe, a pace
    estimate that one disturbed probe does not move.
    """
    pace = statistics.median(probe_s)
    scale = REFERENCE_S / pace
    raw_wall = wall_s - sum(probe_s[1:])
    return {
        "raw_wall_s": raw_wall,
        "raw_item_s": item_s,
        "wall_s": raw_wall * scale,
        "item_s": [t * scale for t in item_s],
        "pace_ms": 1e3 * pace,
    }
