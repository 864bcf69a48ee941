"""A fixed reference computation that measures how fast the host runs right now.

On a shared host the speed of a core drifts by half or more over minutes,
and process CPU time drifts with wall time, so a run's timings depend on
when it ran. ``reference_seconds`` times a fixed piece of pure-Python
series arithmetic over ``Fraction``, the kind of work the program does,
without calling the program. A pass's time divided by the median of the
reference timings taken during the pass, times ``REFERENCE_S``, is the
pass's time at reference speed: the speed at which ``reference_work`` takes
``REFERENCE_S`` seconds.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Timings are reported at the speed at which ``reference_work`` takes this
# long; on a shared 2-core Intel Xeon host a pass's median drifts from 27 to 58 ms.
REFERENCE_S = 0.03


def reference_work(n: int = 40) -> int:
    """A truncated product of two series in q and z with ``Fraction`` coefficients."""
    a = {i: {z: Fraction(7919 * i + z + 2, z + 3) for z in (-1, 0, 1)} for i in range(n)}
    b = {i: {z: Fraction(104729 * i - z, 2 * i + 1) for z in (-1, 0, 1)} for i in range(n)}
    out: dict = {}
    for i, row_a in a.items():
        for j in range(n - i):
            row = out.setdefault(i + j, {})
            for za, ca in row_a.items():
                for zb, cb in b[j].items():
                    row[za + zb] = row.get(za + zb, 0) + ca * cb
    return sum(len(str(c)) for row in out.values() for c in row.values())


def reference_seconds(samples: int = 4) -> list:
    """``samples`` back-to-back timings of ``reference_work``."""
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        reference_work()
        out.append(time.perf_counter() - t0)
    return out
