"""Order statistics shared by the benchmark's parent, child and compare code.

Kept free of any ``repro`` import so the parent process (which never loads
the simulator) and the unit tests can use it on their own.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, q3) exactly as the driver computes them:
    ``statistics.quantiles(values, n=4)``.  Fewer than two samples have no
    spread, so both quartiles collapse onto the single value."""
    if len(values) < 2:
        only = float(values[0])
        return only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0.0 for a zero
    median, where a relative spread has no meaning)."""
    mid = median(values)
    if mid == 0:
        return 0.0
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(mid)


def summary(values: Sequence[float]) -> Dict[str, float]:
    q1, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over *values* (``q`` in [0, 1]); 0.0 when
    empty.  Used for the simulated connect-time percentiles, which must be
    one of the observed virtual times so they repeat exactly per seed."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return float(ordered[index])
