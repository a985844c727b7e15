"""Open-loop load generation for scaling experiments (§3.1).

The paper's efficiency argument starts from demand: "a potentially
very large number of people interested in a particular software
package".  Superdistribution-style workloads are defined by sudden,
heavy-tailed spikes — a release announcement turns a quiet package
into a flash crowd within seconds — and a *closed* loop of simulated
clients (each waiting for its previous download) cannot express that:
a saturated server slows the clients down, which politely throttles
the offered load exactly when the experiment needs it to keep rising.

This module drives **open-loop** load: arrivals happen on a schedule
that does not care how the system is coping, which is how demand works
on the real Internet.  It is built to be cheap enough for 10⁵+
requests per run on the fast-path kernel.

Three pieces:

* **Arrival schedules** — :class:`UniformSchedule` (deterministic
  constant rate), :class:`PoissonSchedule` (memoryless arrivals at a
  constant rate), :class:`BurstSchedule` (every arrival at one
  instant) and :class:`FlashCrowdSchedule` (piecewise-constant
  Poisson: a base rate, then a spike at ``peak_rate``).  Each yields
  the ``count`` absolute simulation times it is asked for, so an open
  loop is bounded by its request count, and is deterministic per
  supplied RNG.
* **The request record** — :class:`Arrival` (index, time, site, rank,
  kind) is the one record of a request in the workload layer: the
  drivers issue it, a :class:`~repro.workloads.population
  .RequestStream` holds it, and a trace file stores it.  Its site is
  drawn from a topology's sites, so load lands where clients live;
  its object rank and kind come from an optional request mix
  (:func:`draw`).
* **The accounting** — :func:`measured` runs one request and records
  its outcome in :class:`LoadStats`: successes, application failures
  and errors, and latency in a telemetry-registry histogram that
  streams in O(1) per request (no sample list at 10⁵+ scale).

The open-loop driver itself is
:class:`~repro.workloads.scenario.OpenLoopScenario` (and
:class:`~repro.workloads.scenario.TraceScenario` for prebuilt
arrivals).  Typical use::

    stats = LoadStats()
    scenario = OpenLoopScenario(PoissonSchedule(rate=500.0),
                                count=100_000, sites=topology.sites)
    elapsed = world.run_until(world.sim.process(scenario.drive(
        world.sim, do_one, rng=world.rng_for("load"), stats=stats)))
    print(stats.summary(), stats.throughput(elapsed))

where ``do_one(arrival)`` is a generator performing one request
against the system under test; it may use ``arrival.site`` (a
:class:`~repro.sim.topology.Domain`), ``arrival.rank`` (the object's
popularity rank, 0 = hottest) and ``arrival.kind``.  Return ``False``
to record an application-level failure; any exception is recorded
under its type name.  The driver never waits for a request to finish
before issuing the next one — that is the point.
"""

from __future__ import annotations

import random
from typing import (Any, Callable, Dict, Generator, Iterator, Optional,
                    Tuple)

from ..analysis.telemetry import MetricsRegistry
from ..sim.kernel import Simulator
from ..sim.topology import Domain

__all__ = [
    "Arrival",
    "ArrivalSchedule",
    "UniformSchedule",
    "PoissonSchedule",
    "BurstSchedule",
    "FlashCrowdSchedule",
    "LoadStats",
    "draw",
    "measured",
]


class Arrival:
    """One request: when, from where, for what.

    The workload layer's only request record: schedules and mixes draw
    it, closed-loop clients and cohorts issue it, a
    :class:`~repro.workloads.population.RequestStream` holds it, and a
    :class:`~repro.workloads.scenario.TraceScenario` replays it.
    """

    __slots__ = ("index", "time", "site", "rank", "kind")

    def __init__(self, index: int, time: float,
                 site: Optional[Domain], rank: int, kind: str = "read"):
        self.index = index
        self.time = time
        #: where the request originates: a Domain, a site-path string
        #: (trace replays without a resolved topology), or None.
        self.site = site
        #: object rank / index this request targets (0 = hottest).
        self.rank = rank
        #: request kind, "read" or "write" (traces and mixes set it).
        self.kind = kind


def draw(mix: Optional[Any], rng: random.Random) -> Tuple[int, str]:
    """One ``(rank, kind)`` draw: from ``mix`` (an object with
    ``draw(rng)``, see :class:`.scenario.RequestMix`) when given, else
    object 0, read."""
    if mix is None:
        return 0, "read"
    return mix.draw(rng)


class ArrivalSchedule:
    """Produces ``count`` absolute arrival times from ``start`` onward."""

    def times(self, count: int, start: float,
              rng: random.Random) -> Iterator[float]:
        raise NotImplementedError


class UniformSchedule(ArrivalSchedule):
    """Deterministic constant-rate arrivals: exactly ``rate`` req/s.

    No randomness in the spacing — useful when an experiment sweeps
    offered load and wants the x-axis to be exact.
    """

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate

    def times(self, count: int, start: float,
              rng: random.Random) -> Iterator[float]:
        for index in range(count):
            yield start + index / self.rate


class PoissonSchedule(ArrivalSchedule):
    """Memoryless arrivals at ``rate`` req/s (exponential gaps).

    The classic open-loop model of many independent users.
    """

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate

    def times(self, count: int, start: float,
              rng: random.Random) -> Iterator[float]:
        now = start
        for _ in range(count):
            now += rng.expovariate(self.rate)
            yield now


class BurstSchedule(ArrivalSchedule):
    """All arrivals at once: a synchronized burst at ``start``.

    The degenerate open-loop case — every request is issued at the
    same instant, e.g. a tool pushing a batch of updates concurrently.
    """

    def times(self, count: int, start: float,
              rng: random.Random) -> Iterator[float]:
        for _ in range(count):
            yield start


class FlashCrowdSchedule(ArrivalSchedule):
    """A quiet base rate with a superdistribution-style demand spike.

    Piecewise-constant Poisson process: arrivals at ``base_rate``
    until ``spike_start`` (relative to the schedule's start), then
    ``peak_rate`` for ``spike_duration`` seconds, then ``base_rate``
    again until ``count`` arrivals have been produced.
    """

    def __init__(self, base_rate: float, peak_rate: float,
                 spike_start: float, spike_duration: float):
        if base_rate <= 0 or peak_rate <= 0:
            raise ValueError("rates must be positive")
        if spike_start < 0 or spike_duration <= 0:
            raise ValueError("spike must lie in the future and last")
        self.base_rate = base_rate
        self.peak_rate = peak_rate
        self.spike_start = spike_start
        self.spike_duration = spike_duration

    def rate_at(self, offset: float) -> float:
        """Instantaneous arrival rate ``offset`` seconds in."""
        if self.spike_start <= offset < self.spike_start + self.spike_duration:
            return self.peak_rate
        return self.base_rate

    def _next_boundary(self, offset: float) -> Optional[float]:
        """The next rate-change instant after ``offset``, if any."""
        if offset < self.spike_start:
            return self.spike_start
        spike_end = self.spike_start + self.spike_duration
        if offset < spike_end:
            return spike_end
        return None

    def times(self, count: int, start: float,
              rng: random.Random) -> Iterator[float]:
        # Exact piecewise-constant Poisson sampling: a gap that would
        # cross a rate boundary is discarded and redrawn at the new
        # rate from the boundary (valid by memorylessness).  Without
        # this, one long base-rate gap could leap clean over the
        # spike window and the flash crowd would never happen.
        now = start
        produced = 0
        while produced < count:
            offset = now - start
            gap = rng.expovariate(self.rate_at(offset))
            boundary = self._next_boundary(offset)
            if boundary is not None and offset + gap >= boundary:
                now = start + boundary
                continue
            now += gap
            yield now
            produced += 1


class LoadStats:
    """Throughput / latency / drop accounting for one load run.

    A bundle of :class:`~repro.analysis.telemetry.MetricsRegistry`
    instruments: issued/ok/failed counters, an error counter, and a
    streaming :class:`~repro.analysis.telemetry.Histogram` of request
    latency (O(1) per request, bounded-error quantiles — no sample
    list however long the soak).  Pass the world's registry
    (``LoadStats(registry=world.metrics)``) to make the load metrics
    visible to its phase windows alongside kernel/network/server
    instruments; the default is a private registry.  Several stats
    bundles can share one registry — each claims a unique prefix.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 prefix: str = "load"):
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.prefix = self.registry.unique_prefix(prefix)
        self._issued = 0
        self._ok = 0
        self._failed = 0
        #: exception-type name -> count, for requests that raised.
        self.errors: Dict[str, int] = {}
        self.registry.counter(self.prefix + ".issued",
                              fn=lambda: self._issued)
        self.registry.counter(self.prefix + ".ok", fn=lambda: self._ok)
        self.registry.counter(self.prefix + ".failed",
                              fn=lambda: self._failed)
        self.registry.counter(self.prefix + ".errors",
                              fn=lambda: sum(self.errors.values()))
        self.latency = self.registry.histogram(self.prefix + ".latency")

    # -- recording (the accounting contract of ``measured``) ------------

    def note_issued(self) -> None:
        self._issued += 1

    def note_ok(self, latency: float) -> None:
        self._ok += 1
        self.latency.record(latency)

    def note_failed(self, error: Optional[str] = None) -> None:
        self._failed += 1
        if error is not None:
            self.errors[error] = self.errors.get(error, 0) + 1

    # -- reading ---------------------------------------------------------

    @property
    def issued(self) -> int:
        return self._issued

    @property
    def ok(self) -> int:
        return self._ok

    @property
    def failed(self) -> int:
        return self._failed

    @property
    def finished(self) -> int:
        return self._ok + self._failed

    @property
    def in_flight(self) -> int:
        return self._issued - self.finished

    def throughput(self, elapsed: float) -> float:
        """Completed-OK requests per second of simulated time.

        0.0 for an empty or instantaneous run — a soak that completed
        nothing must still report cleanly.
        """
        if elapsed <= 0:
            return 0.0
        return self._ok / elapsed

    def summary(self) -> Dict[str, Any]:
        """Counts plus latency summary; all-zero when nothing ran."""
        out: Dict[str, Any] = {"issued": self._issued, "ok": self._ok,
                               "failed": self._failed}
        out.update({"mean": self.latency.mean, "p50": self.latency.p(50),
                    "p95": self.latency.p(95)})
        return out

    def phase_summary(self, window) -> Dict[str, Any]:
        """This bundle's activity inside one
        :class:`~repro.analysis.telemetry.PhaseWindow`: count deltas,
        the latency histogram of completions in the window, and
        throughput over the window's span."""
        latency = window.delta(self.prefix + ".latency")
        duration = window.duration or 0.0
        ok = window.delta(self.prefix + ".ok")
        return {
            "phase": window.label,
            "duration": duration,
            "issued": window.delta(self.prefix + ".issued"),
            "ok": ok,
            "failed": window.delta(self.prefix + ".failed"),
            "errors": window.delta(self.prefix + ".errors"),
            "throughput": ok / duration if duration > 0 else 0.0,
            "mean": latency.mean,
            "p50": latency.p(50),
            "p95": latency.p(95),
        }


def measured(sim: Simulator, request: Callable[[Arrival], Generator],
             arrival: Arrival, stats: LoadStats) -> Generator:
    """One measured request — THE accounting contract for all drivers
    (open loop, closed loop, trace replay): ``False`` ⇒ failed, an
    exception ⇒ counted under its type name, anything else ⇒ ok with
    latency recorded."""
    started = sim.now
    try:
        result = yield from request(arrival)
    except Exception as exc:  # noqa: BLE001 - accounted, not hidden
        stats.note_failed(type(exc).__name__)
    else:
        if result is False:
            stats.note_failed()
        else:
            stats.note_ok(sim.now - started)
