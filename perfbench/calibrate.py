"""Machine-speed reference that the benchmark's timings are scaled by.

The benchmark runs on a shared 2-core machine whose speed changes by up to
2x for stretches of 10 to 30 s while other tenants load it; in those
stretches every piece of Python code, diagalg or not, runs slower.  So the
harness times a fixed pure-Python routine, ``reference()``, next to the
library calls, and reports each time multiplied by ``REFERENCE_S / r``,
where ``r`` is the median of the reference times taken just before that
call and the WINDOW calls on either side of it.  On an idle machine ``r`` is
about ``REFERENCE_S`` and the figures are plain seconds.  Each timed run of
the routine follows an untimed one, so that what the previous call left
behind (cold caches, garbage-collection debt) does not land in ``r``.

The routine lives in the harness, so no change to diagalg moves it.  It
multiplies two small sparse polynomials held as dicts of exponent tuples,
which is the kind of work (tuple building, dict updates, small-int
arithmetic) that diagalg's kernel does.
"""

from __future__ import annotations

import statistics
import time

_A = [tuple((i * j + k) % 4 for k in range(6)) for i in range(5) for j in range(4)]
_B = [tuple((i + 2 * j * k) % 3 for k in range(6)) for i in range(4) for j in range(5)]

# Median time of reference() on an idle Intel Xeon 2-core machine, Python 3.11.
REFERENCE_S = 0.00040
# Ops on either side of an op whose reference times scale it.
WINDOW = 5


def reference() -> int:
    acc: dict = {}
    for a in _A:
        for b in _B:
            mono = tuple(x + y for x, y in zip(a, b))
            acc[mono] = (acc.get(mono, 0) + 3) % 101
    return len(acc)


def time_reference() -> float:
    reference()  # warm-up, untimed
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def scale(samples) -> float:
    """REFERENCE_S over the median of the reference times."""
    return REFERENCE_S / statistics.median(samples)


def local_scales(samples) -> list:
    """For each op, the scale from the reference times taken before the
    WINDOW ops on either side of it and itself, so that a slow stretch
    scales only the ops that ran in it."""
    return [scale(samples[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(len(samples))]
