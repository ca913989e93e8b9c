"""A fixed probe of the machine's current speed, independent of scoutsim.

The box this benchmark was built on is a shared 2-vCPU VM whose speed
drifts by up to 2x within minutes while steal time stays near zero, so raw
seconds from two runs minutes apart are not comparable.  The worker times
this probe next to every job (untimed itself) and the benchmark reports
each time scaled to a machine on which the probe takes ``REF_PROBE_S``:

    scaled = measured * REF_PROBE_S / probe time measured next to it

The probe mixes the kinds of work scoutsim does: pure-Python integer,
dict and ``Fraction`` arithmetic, many small numpy calls, and passes over
arrays larger than the per-core caches.  Its buffers are allocated once,
so it adds a constant 8 MiB to the worker's peak RSS.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

REF_PROBE_S = 0.022
_X = np.arange(1 << 19, dtype=np.uint64)  # 4 MiB
_Y = np.empty_like(_X)
_MUL = np.uint64(0x9E3779B97F4A7C15)


def _work() -> None:
    acc = 0
    table = {}
    for i in range(40000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    small = np.zeros(64, dtype=np.int64)
    for i in range(3000):
        small += 1
        np.maximum(small, i, out=small)
    for _ in range(2):
        np.multiply(_X, _MUL, out=_Y)
        np.bitwise_xor(_Y, _X, out=_Y)
        np.cumsum(_Y, out=_Y)


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    start = perf_counter()
    _work()
    return perf_counter() - start


def probe_median(n: int = 3) -> float:
    return statistics.median(probe() for _ in range(n))
