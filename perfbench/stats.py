"""Statistics helpers of the benchmark: medians, quartiles, guarded
percentiles and span self time. Standard library only."""

import math
import statistics

# A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3), computed the way the steadiness check does:
    statistics.quantiles(values, n=4) with its default (exclusive)
    method. Needs at least two values."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def percentile(values, p):
    """Nearest-rank p-th percentile, or None unless at least
    MIN_BEYOND samples rank beyond it. A failed operation enters as
    math.inf, so it counts as missing every latency figure."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0
    end = -math.inf
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def self_times(spans):
    """Per-span self time: the span's duration minus the part of it
    that its child spans cover (children may run in parallel, so the
    union of their intervals is subtracted, not their sum).

    spans: list of dicts with start_ns, end_ns and parent (an index
    into the list, -1 for a root). Returns a list of nanoseconds."""
    children = [[] for _ in spans]
    for sp in spans:
        if sp["parent"] >= 0:
            children[sp["parent"]].append(sp)
    result = []
    for sp, kids in zip(spans, children):
        start, end = sp["start_ns"], sp["end_ns"]
        inner = [(max(k["start_ns"], start), min(k["end_ns"], end))
                 for k in kids]
        result.append(end - start - covered([iv for iv in inner
                                             if iv[1] > iv[0]]))
    return result
