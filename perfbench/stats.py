"""The tail-percentile rule for op times."""
from __future__ import annotations

import math

# The tail percentile is the highest one with at least this many samples beyond it.
TAIL_BEYOND = 10


def tail_percentile(samples) -> tuple[float, int, int]:
    """(value, percentile, n) of the highest integer percentile with >= 10 samples beyond it.

    Percentiles use the nearest-rank rule: percentile p is the k-th smallest
    sample, k = ceil(p·n/100). With 10 or fewer samples no percentile
    qualifies; the maximum is returned and labelled percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return xs[-1], 100, n
    p = 100 * (n - TAIL_BEYOND) // n
    k = max(1, math.ceil(p * n / 100))
    return xs[k - 1], p, n
