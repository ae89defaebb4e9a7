"""Summary statistics shared by every workload.

Latencies are reported as a median and a high percentile; the
percentile uses linear interpolation between closest ranks, so it is
defined for any non-empty sample.  ``spread`` is the quartile distance
as a share of the median, computed exactly as the acceptance check
does (``statistics.quantiles(values, n=4)``).
"""

from __future__ import annotations

import statistics
from collections.abc import Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction`` quantile of ``values`` (linear interpolation)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside [0, 1]")
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * weight


def median(values: Sequence[float]) -> float:
    """The sample median."""
    return percentile(values, 0.5)


def block_percentile(values: Sequence[float], fraction: float,
                     block: int) -> float:
    """Median over consecutive blocks of ``block`` samples of each
    block's ``fraction`` quantile.

    ``values`` are in the order they were measured.  A host whose speed
    drops for a few seconds inflates every sample of those seconds, so
    they would fill the top of a pooled sample; here they move only the
    blocks they fall in, and the median over blocks ignores those.
    Samples after the last complete block are left out; with fewer
    than two complete blocks this is the pooled quantile.
    """
    if block < 1:
        raise ValueError("block_percentile needs a positive block size")
    if len(values) < 2 * block:
        return percentile(values, fraction)
    return median([
        percentile(values[start:start + block], fraction)
        for start in range(0, len(values) - block + 1, block)
    ])


def beyond(values: Sequence[float], fraction: float) -> int:
    """How many samples lie strictly above the ``fraction`` quantile."""
    cut = percentile(values, fraction)
    return sum(1 for value in values if value > cut)


def spread(values: Sequence[float]) -> float:
    """Quartile distance over the median: ``(Q3 - Q1) / median``."""
    if len(values) < 2:
        return 0.0
    q1, mid, q3 = statistics.quantiles(values, n=4)
    if mid == 0:
        raise ValueError("spread of a sample whose median is 0")
    return (q3 - q1) / abs(mid)


def rate(count: int, seconds: float) -> float:
    """Events per second; ``seconds`` must be positive."""
    if seconds <= 0:
        raise ValueError("rate over a non-positive interval")
    return count / seconds


def group_rate(stamps: Sequence[float], size: int, factor=None) -> float:
    """Median events per second over consecutive groups of ``size``.

    ``stamps`` are event times.  Each group of ``size`` events after
    the first one is timed from the event before it to its last event;
    the median over groups is not moved by the few groups a busy
    neighbour on the host slowed down, which a mean over the run
    would be.  ``factor(start, end)``, if given, scales each group's
    duration.  A run with no more than ``size`` events is one group.
    """
    ordered = sorted(stamps)
    if size < 1 or len(ordered) < 2:
        raise ValueError("group_rate needs two events and a positive size")
    size = min(size, len(ordered) - 1)
    rates = []
    for start in range(0, len(ordered) - size, size):
        begin, end = ordered[start], ordered[start + size]
        scale = factor(begin, end) if factor is not None else 1.0
        rates.append(size / ((end - begin) * scale))
    return median(rates)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0
