"""A fixed reference pass that measures how fast the machine runs right now.

On a shared virtual machine the processor's speed changes by up to 2x:
in bursts of under a second, whose density changes over minutes.  A run
of a few seconds cannot escape the bursts, so its time follows their
density.  The benchmark therefore times short reference passes all
through its window, between the runs it measures, and scales its mean
timings by ``REF_S / mean reference pass``: the timings it reports are
seconds on a machine on which one reference pass takes ``REF_S``.  Means,
not medians: a mean grows in step with the share of time lost to bursts,
on both sides of the ratio, while the median of short passes jumps
between the fast and the slow speed.  The pass does not touch isoflow,
so a change to the program moves the scaled timings and leaves the
scale alone.

The pass mixes the two kinds of work isoflow does: scalar Python
arithmetic (the radial oracle, the cell sweep) and numpy and scipy
operations on a small grid (the level-set step, labelling).  It takes
about 10 ms on an unloaded 2.0 GHz Xeon core.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import ndimage

REF_S = 0.010  # the nominal duration of one pass, in seconds

_GRID = np.random.default_rng(0).standard_normal((56, 221))


def reference_pass() -> float:
    s = 0.0
    for i in range(20000):
        s += math.sqrt(i * 0.5 + 1.0) / (1.0 + i)
    b = _GRID
    for _ in range(30):
        b = np.roll(b, 1, 0) * 0.5 + np.sqrt(np.abs(b)) - np.gradient(b, axis=1)
        ndimage.label(b > 0.3)
    return s + float(b[0, 0])


def time_passes(n: int) -> list[float]:
    """The durations of ``n`` reference passes, in seconds."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        reference_pass()
        out.append(time.perf_counter() - t0)
    return out
