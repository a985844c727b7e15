"""Measurement helpers shared by experiments and benchmarks.

:func:`percentile` and :class:`Series` are the *exact*, keep-every-
sample tools for small experiment series (a handful of points per
table row).  High-volume load paths use the O(1) streaming
:class:`~repro.analysis.telemetry.Histogram` instead; tests use
``percentile`` as the ground truth histograms are checked against.

This module deliberately imports nothing from :mod:`repro.sim` at
module scope: the sim layer binds itself to
:class:`~repro.analysis.telemetry.MetricsRegistry`, so the analysis
package must be importable first.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List

__all__ = ["Series", "percentile"]


def percentile(values: Iterable[float], p: float) -> float:
    """The p-th percentile (0..100) with linear interpolation."""
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    if not 0 <= p <= 100:
        raise ValueError("percentile out of range")
    if len(data) == 1:
        return data[0]
    rank = (p / 100.0) * (len(data) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return data[low]
    fraction = rank - low
    value = data[low] * (1 - fraction) + data[high] * fraction
    # Clamp: interpolation may drift past the extremes by one ULP.
    return min(max(value, data[0]), data[-1])


class Series:
    """A named sample collection with summary statistics."""

    def __init__(self, name: str):
        self.name = name
        self.samples: List[float] = []

    def add(self, value: float) -> None:
        self.samples.append(value)

    def extend(self, values: Iterable[float]) -> None:
        self.samples.extend(values)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            raise ValueError("no samples in %r" % self.name)
        return sum(self.samples) / len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    def p(self, q: float) -> float:
        return percentile(self.samples, q)

    @property
    def median(self) -> float:
        return self.p(50)

    @property
    def maximum(self) -> float:
        return max(self.samples)

    def summary(self) -> Dict[str, float]:
        return {"count": self.count, "mean": self.mean,
                "median": self.median, "p95": self.p(95),
                "max": self.maximum}

