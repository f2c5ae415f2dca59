"""Calibration unit: a fixed piece of pure-Python work that the benchmark
times next to the workload's ops, to measure how fast the machine runs at
that moment.

On a shared host the speed at which Python code runs drifts by up to 2x,
in phases from a tenth of a second to minutes.  Timing the same
stdlib-only work (Fractions in a dict keyed by tuples, float maths, sorting,
string building: the kind of work the exact ring and the kinematics do)
close in time to each op, and dividing the op's time by it, cancels that
drift.  The unit never imports kappahopf, so no change to kappahopf can
change what it measures.
"""

from __future__ import annotations

import gc
import math
import time
from fractions import Fraction

# A reported time is the measured time scaled to a machine on which one
# unit takes REF_UNIT_MS: t * REF_UNIT_MS / (the unit's time measured next
# to t).  On a 2-vCPU x86_64 VM with Python 3.11.7, a unit took 1.06 ms at
# best and about 1.9 ms in the host's usual slower phases.
REF_UNIT_MS = 1.0


def unit_ms() -> float:
    """Run one calibration unit and return its wall time in ms.

    The garbage collector is paused during the unit, so that its time does
    not depend on how many objects the workload keeps alive.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        acc: dict[tuple[int, int], Fraction] = {}
        x = 0.0
        for i in range(240):
            key = (i % 13, i % 7)
            f = Fraction(i + 1, (i % 5) + 1)
            acc[key] = acc.get(key, Fraction(0)) + f * f
            x += math.sqrt(i + 1.5) * math.log1p(i)
        sorted(acc.items())
        "".join(str(v) for v in acc.values())
        return (time.perf_counter() - t) * 1e3
    finally:
        if was_enabled:
            gc.enable()
