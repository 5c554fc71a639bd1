"""In-memory spans, counters and the order statistics the benchmark reports.

A span is [name, start, end, parent index]. The benchmark runs in one
thread, so spans nest strictly and a span's self time is its duration
minus the durations of its direct children.
"""
from __future__ import annotations

import math
import statistics
import time
from collections import Counter


class Tracer:
    """Records spans and named counters for one phase of a run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self.spans[index][2] = self.clock()
        self._open.pop()

    def add(self, key: str, n: float = 1) -> None:
        self.counts[key] += n


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
    return totals


def inclusive_times(spans) -> dict[str, float]:
    """Total duration per span name, children included. A span nested in
    a span of the same name is counted once, through the outer one."""
    totals: dict[str, float] = {}
    for name, start, end, parent in spans:
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def min_samples(pct: int, beyond: int = 10) -> int:
    """Fewest samples whose pct-th percentile has `beyond` samples above it."""
    n = 1
    while n - _rank(pct, n) < beyond:
        n += 1
    return n


def _rank(pct: int, n: int) -> int:
    # nearest-rank position, 1-based, in integer arithmetic
    return -(-pct * n // 100)


def percentile(samples, pct: int, beyond: int = 10) -> float:
    """Nearest-rank percentile; refuses when fewer than `beyond` samples
    lie past it, since such a tail is one or two outliers, not a rate."""
    n = len(samples)
    k = _rank(pct, n)
    if n == 0 or n - k < beyond:
        raise ValueError(
            f"p{pct} of {n} samples leaves {max(n - k, 0)} beyond it; need {beyond}"
        )
    return sorted(samples)[k - 1]


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
