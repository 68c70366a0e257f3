"""Order statistics used by the benchmark report."""
from __future__ import annotations

import statistics

# A tail percentile is reported only with this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values, beyond: int = TAIL_BEYOND):
    """Highest nearest-rank percentile with `beyond` samples above it.

    Returns (percentile, value, sample count). With n sorted samples the
    value is the (n - beyond)-th smallest, so exactly `beyond` samples rank
    after it, and the percentile is 100 * (n - beyond) / n.

    Raises:
        ValueError: with `beyond` samples or fewer, no percentile qualifies.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"{n} samples: a tail percentile needs more than {beyond}")
    return 100.0 * (n - beyond) / n, float(ordered[n - beyond - 1]), n
