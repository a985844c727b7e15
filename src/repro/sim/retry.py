"""Shared retry policies: backoff, deterministic jitter, retry budgets.

The paper's wide-area deployment assumes failures are routine (§1,
§6.1), and the original UDP-RPC recovery mechanism — a fixed-interval
retry loop — synchronizes recovery traffic into storms: every call
that enters a partition retries on the same fixed beat, so the heal
instant is met by a correlated wave of datagrams.  This module factors
the *retry discipline* out of the transports so every client shares
one vocabulary:

* :class:`RetryPolicy` — per-attempt timeout, a per-call attempt cap,
  a delay schedule before each retry, and an optional shared
  :class:`RetryBudget`.
* :class:`FixedRetry` — the legacy discipline (fixed timeout,
  immediate retries, no budget).  Byte-identical to the historical
  ``UdpRpcClient(timeout=..., retries=...)`` behaviour: it never
  draws randomness and never schedules a backoff timer, so replay
  fingerprints pinned before this module keep holding.
* :class:`ExponentialBackoff` — capped exponential backoff with
  *seeded, deterministic* jitter.  Jitter draws come from a
  ``random.Random`` seeded from a stable key (the client host's
  name), never from wall clock, so the same seed + fault schedule
  replays the same retry instants while different clients still
  desynchronize from each other.
* :class:`RetryBudget` — a token bucket shared across calls (and
  across clients, if desired) that rate-limits retries globally: a
  partition can cost at most ``burst`` immediate retries plus
  ``rate`` per second thereafter, instead of every in-flight call
  retrying on schedule forever.

Policies are plain configuration: they hold no per-call state, so one
instance can be shared by any number of clients (each client keeps
its own jitter RNG, keyed by its host name through
:meth:`RetryPolicy.make_rng`).
"""

from __future__ import annotations

import random
import zlib
from typing import Callable, Optional

__all__ = ["RetryPolicy", "FixedRetry", "ExponentialBackoff",
           "RetryBudget", "jitter_rng"]


def jitter_rng(key: str) -> random.Random:
    """A deterministic jitter RNG keyed by a stable string (a host
    name): reproducible across runs, distinct across clients."""
    return random.Random(zlib.crc32(key.encode("utf-8")))


class RetryBudget:
    """A token bucket rate-limiting retries across calls.

    ``burst`` tokens are available immediately; they replenish at
    ``rate`` tokens per second of simulated time, up to ``burst``.
    Each retry costs one token (:meth:`spend`); a denied spend means
    the caller should give up instead of retrying.  The bucket is
    refilled lazily from the caller-supplied clock value, so it costs
    no timers and stays deterministic.

    Shared freely: one budget across many clients caps the *system's*
    retry traffic during a partition, which is what prevents a
    coordinated storm.
    """

    def __init__(self, rate: float, burst: float):
        if rate < 0.0:
            raise ValueError("rate cannot be negative")
        if burst <= 0.0:
            raise ValueError("burst must be positive")
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last = 0.0
        # Plain-int accounting.
        self.granted = 0
        self.denied = 0

    def spend(self, now: float) -> bool:
        """Try to spend one token at simulated time ``now``."""
        if now > self._last:
            self.tokens = min(self.burst,
                              self.tokens + (now - self._last) * self.rate)
            self._last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.granted += 1
            return True
        self.denied += 1
        return False

    def __repr__(self) -> str:
        return ("RetryBudget(rate=%g, burst=%g, tokens=%.2f)"
                % (self.rate, self.burst, self.tokens))


class RetryPolicy:
    """Base retry discipline: attempt cap, per-attempt timeout, delays.

    ``timeout`` guards each attempt; ``retries`` is the number of
    *extra* attempts after the first (so a call makes at most
    ``1 + retries`` attempts).  :meth:`retry_delay` returns how long
    to wait before retry number ``attempt`` (1-based); the base class
    retries immediately.  ``budget`` (optional) is consulted once per
    retry by the adopting client — a denied spend ends the call.

    ``rng_fn`` in :meth:`retry_delay` is a zero-argument callable
    returning a seeded ``random.Random``; policies that do not jitter
    must not call it, so deterministic legacy paths never pay for (or
    observe) RNG creation.
    """

    def __init__(self, timeout: float = 0.5, retries: int = 3,
                 budget: Optional[RetryBudget] = None):
        if timeout <= 0.0:
            raise ValueError("timeout must be positive")
        if retries < 0:
            raise ValueError("retries cannot be negative")
        self.timeout = timeout
        self.retries = retries
        self.budget = budget

    @property
    def attempts(self) -> int:
        return 1 + self.retries

    def retry_delay(self, attempt: int,
                    rng_fn: Callable[[], random.Random]) -> float:
        """Delay before retry ``attempt`` (1-based); 0.0 = immediate."""
        return 0.0

    def make_rng(self, key: str) -> random.Random:
        """A deterministic jitter RNG for one client.

        Seeded from a stable string key (the client's host name) so
        replays are reproducible while distinct clients draw distinct
        jitter streams — the desynchronization that breaks retry
        storms.
        """
        return jitter_rng(key)

    def __repr__(self) -> str:
        return ("%s(timeout=%g, retries=%d)"
                % (type(self).__name__, self.timeout, self.retries))


class FixedRetry(RetryPolicy):
    """The legacy discipline: fixed timeout, immediate retries.

    Exactly what ``UdpRpcClient(timeout=..., retries=...)`` did before
    policies existed — and the constructor still builds one of these,
    so the historical call sites replay byte-identically: no backoff
    timer is ever scheduled, no randomness is ever drawn, no budget is
    consulted.
    """


class ExponentialBackoff(RetryPolicy):
    """Capped exponential backoff with seeded, deterministic jitter.

    Retry ``k`` (1-based) waits ``base * multiplier**(k-1)`` seconds,
    capped at ``max_delay``, then shrunk by up to ``jitter`` of itself
    with a draw from the client's seeded RNG (``full jitter`` keeps
    the delay in ``[(1-jitter)*d, d]`` — strictly positive, bounded
    above by the deterministic schedule).  Distinct clients get
    distinct RNG streams, so retries that would align under
    :class:`FixedRetry` spread out instead.
    """

    def __init__(self, timeout: float = 0.5, retries: int = 3,
                 base: float = 0.1, multiplier: float = 2.0,
                 max_delay: float = 5.0, jitter: float = 0.5,
                 budget: Optional[RetryBudget] = None):
        super().__init__(timeout=timeout, retries=retries, budget=budget)
        if base <= 0.0:
            raise ValueError("base delay must be positive")
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if max_delay < base:
            raise ValueError("max_delay must be >= base")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.base = base
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter

    def retry_delay(self, attempt: int,
                    rng_fn: Callable[[], random.Random]) -> float:
        delay = min(self.max_delay,
                    self.base * self.multiplier ** (attempt - 1))
        if self.jitter:
            delay *= 1.0 - self.jitter * rng_fn().random()
        return delay
