"""Order statistics of one run, and the parent-versus-change comparison."""

from __future__ import annotations

import math
import statistics


def weighted_percentile(samples: list[tuple[float, float]], pct: float) -> float:
    """Smallest value whose cumulative weight reaches pct% of the total;
    ``samples`` holds (value, weight) pairs."""
    ordered = sorted(samples)
    target = pct / 100 * sum(w for _, w in ordered)
    acc = 0.0
    for value, weight in ordered:
        acc += weight
        if acc >= target * (1 - 1e-12):
            return value
    return ordered[-1][0]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def classify(
    parent: list[float], change: list[float], better: str, bound: float
) -> tuple[str, int, int]:
    """Classify one metric on one workload.

    Runs are paired in order.  ``improved``: at least ten pairs, the change
    wins nine tenths of them (ties count for neither) and the medians differ
    by more than the parent's quartile distance.  ``unresolved``: the
    parent's quartile spread exceeds the bound, unless every change run beats
    every parent run.  ``worse``: the change median is worse than the
    parent's by more than ``bound`` of it.  Otherwise ``no worse``.
    Returns (class, pair wins, pairs).
    """
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1:
        return "improved", wins, len(pairs)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread(parent) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "worse", wins, len(pairs)
    return "no worse", wins, len(pairs)
