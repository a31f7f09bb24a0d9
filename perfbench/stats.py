"""Summary statistics the benchmark reports.

A timing is reported as its median plus the highest percentile from
:data:`PERCENTILES` that still has at least :data:`MIN_BEYOND` samples
beyond it, so a tail figure is never read off one or two samples.

The median is the Harrell-Davis estimate: a weighted mean of all the
order statistics, weighted most near the middle.  A run's timings are
clusters of different kinds of work (cache-hit and cache-miss epochs,
duplicate and fresh requests), and the plain middle sample jumps from
one cluster to the next when noise swaps two samples at a cluster's
edge; the weighted estimate moves only as much as the samples do.
"""

from __future__ import annotations

import math

from scipy.special import betainc

#: Candidate tail percentiles, highest first.
PERCENTILES = (99, 95, 90, 75)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolated ``p``-th percentile (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` sorted samples rank above the ``p``-th percentile."""
    return n - 1 - math.floor((n - 1) * p / 100.0)


def hd_median(values) -> float:
    """The Harrell-Davis estimate of the median of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no samples")
    n = len(xs)
    a = (n + 1) / 2.0
    cuts = [float(betainc(a, a, i / n)) for i in range(n + 1)]
    return math.fsum(w * x for w, x in zip((hi - lo for lo, hi in zip(cuts, cuts[1:])), xs))


def tail_percentile(n: int) -> int | None:
    """The highest percentile with at least ``MIN_BEYOND`` samples beyond it."""
    for p in PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def summarize(values) -> dict:
    """Median, the reportable tail percentile (if any) and the count."""
    xs = list(values)
    out = {"n": len(xs), "p50": hd_median(xs) if xs else None,
           "tail_p": None, "tail": None}
    p = tail_percentile(len(xs))
    if p is not None:
        out["tail_p"] = p
        out["tail"] = percentile(xs, p)
    return out

