"""A fixed reference computation, timed next to every timed op.

Shared hosts change speed under the benchmark: on a 2-core x86-64 VM the
same interpreter-bound work ran 1.5 times slower in some stretches of
seconds than in others, as other tenants loaded the same cores. That moves
the wall time of interpreter-bound code by as much and swamps the program's
own changes. So on a workload marked ``scaled`` each timed op (and each
set-up) is bracketed by :func:`reference_s`, a single-threaded computation
that never changes, and its wall time is rescaled to the reference's
nominal speed::

    scaled = wall * NOMINAL_S / mean(reference before, reference after)

A change to radd moves the op's wall time and not the reference, so it
moves the scaled time in full; a slow stretch of the host moves both, and
it cancels. The reference is mostly interpreter work (dict updates, JSON)
with a numpy pass over 8 MiB. It calls no BLAS, so radd's thread pools
cannot change it. Work spread over BLAS threads on both cores does not slow
down with it, so the library workloads report plain wall time.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# About the reference's time on a quiet 2-core x86-64 host (Python 3.11,
# numpy 2.4), so that scaled times read close to wall times there.
NOMINAL_S = 0.010
REPS = 5

_KEYS = [f"k{i}" for i in range(1500)]
_DOC = json.dumps({"rows": [{"id": i, "v": [i * 0.25] * 8} for i in range(600)]})
_BUF = np.arange(1 << 20, dtype=np.float64)  # 8 MiB


def _work() -> float:
    table: dict[str, int] = {}
    for i, key in enumerate(_KEYS * 16):
        table[key] = table.get(key, 0) ^ (i * 2654435761 & 0xFFFF)
    json.loads(_DOC)
    return sum(float(_BUF.sum()) for _ in range(4)) + len(table)


def reference_s() -> float:
    """The median of REPS runs of the reference, in seconds: the host's
    speed around now, rather than its best moment."""
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` at the reference's nominal speed."""
    return wall_s * NOMINAL_S * 2.0 / (before_s + after_s)
