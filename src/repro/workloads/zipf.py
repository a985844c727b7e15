"""Zipf-distributed popularity sampling.

Web and software-download popularity is classically Zipf-like: the
paper's efficiency argument (§3.1) — replicate the popular things where
their readers are, leave the long tail on single servers — only matters
because demand is this skewed.  Pure-Python inverse-CDF sampler,
deterministic per supplied RNG.
"""

from __future__ import annotations

import bisect
import random
from typing import List

__all__ = ["ZipfSampler"]


class ZipfSampler:
    """Samples ranks 0..n-1 with probability ∝ 1/(rank+1)^alpha."""

    def __init__(self, n: int, alpha: float = 1.0,
                 rng: random.Random = None):
        if n < 1:
            raise ValueError("need at least one item")
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.rng = rng or random.Random()
        weights = [1.0 / (rank + 1) ** alpha for rank in range(n)]
        total = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard against float drift

    def sample(self, rng: random.Random = None) -> int:
        """One rank draw (0 is the most popular).

        ``rng`` overrides the sampler's own stream for callers that
        own the randomness (e.g. a shared
        :class:`~repro.workloads.scenario.RequestMix`)."""
        return bisect.bisect_left(self._cdf, (rng or self.rng).random())
