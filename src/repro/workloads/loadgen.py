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
  constant rate) and :class:`FlashCrowdSchedule` (piecewise-constant
  Poisson: a base rate, then a spike at ``peak_rate``).  All yield
  absolute simulation times and are deterministic per supplied RNG.
* **Request population** — optional Zipf object popularity (via
  :class:`.zipf.ZipfSampler`) and per-request site placement drawn
  from a topology's sites, so load lands where clients live.
* **The driver** — :class:`LoadGenerator` spawns one simulation
  process per arrival, measures each request's latency, and accounts
  successes, application failures and errors in :class:`LoadStats` —
  a bundle of telemetry-registry instruments whose latency histogram
  streams in O(1) per request (no sample list at 10⁵+ scale).  Runs
  are bounded by ``count`` or by ``duration`` (simulated seconds).

Typical use::

    stats = LoadStats()
    gen = LoadGenerator(world.sim, PoissonSchedule(rate=500.0),
                        request=do_one, count=100_000,
                        rng=world.rng_for("load"),
                        sites=topology.sites, stats=stats)
    elapsed = world.run_until(world.sim.process(gen.run()))
    print(stats.summary(), stats.throughput(elapsed))

where ``do_one(arrival)`` is a generator performing one request
against the system under test; it may use ``arrival.site`` (a
:class:`~repro.sim.topology.Domain`) and ``arrival.rank`` (a Zipf
popularity rank, 0 = hottest).  Return ``False`` to record an
application-level failure; any exception is recorded under its type
name.  The driver never waits for a request to finish before issuing
the next one — that is the point.
"""

from __future__ import annotations

import itertools
import random
from typing import (Any, Callable, Dict, Generator, Iterator, List,
                    Optional, Sequence)

from ..analysis.telemetry import MetricsRegistry
from ..sim.kernel import Event, Simulator
from ..sim.topology import Domain
from .zipf import ZipfSampler

__all__ = [
    "Arrival",
    "ArrivalSchedule",
    "UniformSchedule",
    "PoissonSchedule",
    "BurstSchedule",
    "FlashCrowdSchedule",
    "LoadStats",
    "LoadGenerator",
    "measured",
]


class Arrival:
    """One scheduled request: when, from where, for what."""

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

    def __repr__(self) -> str:
        if self.site is None:
            where = "-"
        else:
            where = getattr(self.site, "path", self.site)
        return ("Arrival(#%d %.3fs %s obj%d @ %s)"
                % (self.index, self.time, self.kind, self.rank, where))


class ArrivalSchedule:
    """Produces absolute arrival times from ``start`` onward.

    ``count=None`` yields an unbounded stream — the duration-bound
    driver slices it by simulated time instead of by request count.
    """

    def times(self, count: Optional[int], start: float,
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

    def times(self, count: Optional[int], start: float,
              rng: random.Random) -> Iterator[float]:
        indices = itertools.count() if count is None else range(count)
        for index in indices:
            yield start + index / self.rate


class PoissonSchedule(ArrivalSchedule):
    """Memoryless arrivals at ``rate`` req/s (exponential gaps).

    The classic open-loop model of many independent users.
    """

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate

    def times(self, count: Optional[int], start: float,
              rng: random.Random) -> Iterator[float]:
        now = start
        produced = 0
        while count is None or produced < count:
            now += rng.expovariate(self.rate)
            yield now
            produced += 1


class BurstSchedule(ArrivalSchedule):
    """All arrivals at once: a synchronized burst at ``start``.

    The degenerate open-loop case — every request is issued at the
    same instant, e.g. a tool pushing a batch of updates concurrently.
    """

    def times(self, count: Optional[int], start: float,
              rng: random.Random) -> Iterator[float]:
        if count is None:
            # Every burst arrival shares one instant; an open-ended
            # burst would issue forever without advancing time.
            raise ValueError("BurstSchedule needs a count, not a duration")
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

    def times(self, count: Optional[int], start: float,
              rng: random.Random) -> Iterator[float]:
        # Exact piecewise-constant Poisson sampling: a gap that would
        # cross a rate boundary is discarded and redrawn at the new
        # rate from the boundary (valid by memorylessness).  Without
        # this, one long base-rate gap could leap clean over the
        # spike window and the flash crowd would never happen.
        now = start
        produced = 0
        while count is None or produced < count:
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
                 prefix: str = "load", max_error: float = 0.01):
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
        self.latency = self.registry.histogram(self.prefix + ".latency",
                                               max_error=max_error)

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
        latency = window.delta(self.latency.name)
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


class LoadGenerator:
    """Open-loop driver: issue requests on schedule, never wait.

    Each arrival spawns its own simulation process running
    ``request(arrival)``; the driver sleeps only between arrival
    times, then waits for the stragglers.  ``sites`` (Domains or site
    path strings resolved against ``topology``) are sampled uniformly
    per request; ``popularity`` (a :class:`ZipfSampler`) assigns each
    request an object rank.  Both are optional — a single-site,
    single-object workload needs neither.

    The run is bounded either by ``count`` (exactly that many
    arrivals) or by ``duration`` (issue arrivals until the schedule
    passes ``start + duration`` of simulated time — the open-ended
    soak mode, where the request total is an outcome, not an input).
    """

    def __init__(self, sim: Simulator,
                 schedule: Optional[ArrivalSchedule],
                 request: Callable[[Arrival], Generator],
                 count: Optional[int] = None,
                 rng: Optional[random.Random] = None,
                 sites: Optional[Sequence[Domain]] = None,
                 popularity: Optional[ZipfSampler] = None,
                 stats: Optional[LoadStats] = None,
                 arrivals: Optional[Sequence[Arrival]] = None,
                 mix: Optional[Any] = None,
                 duration: Optional[float] = None):
        if arrivals is not None:
            # A prebuilt arrival stream (trace replay, request mixes)
            # replaces the schedule/sites/popularity drawing entirely.
            if duration is not None:
                raise ValueError("duration does not apply to prebuilt "
                                 "arrivals")
            self._prebuilt: Optional[List[Arrival]] = list(arrivals)
            if count is None:
                count = len(self._prebuilt)
            elif count != len(self._prebuilt):
                raise ValueError("count does not match the arrival list")
        else:
            if schedule is None:
                raise ValueError("need a schedule or prebuilt arrivals")
            if (count is None) == (duration is None):
                raise ValueError(
                    "bound the run with either count or duration")
            self._prebuilt = None
        if count is not None and count < 1:
            raise ValueError("count must be >= 1")
        if duration is not None and duration <= 0:
            raise ValueError("duration must be positive")
        self.sim = sim
        self.schedule = schedule
        self.request = request
        self.count = count
        self.duration = duration
        self.rng = rng or random.Random(0)
        self.sites: Optional[List[Domain]] = (list(sites) if sites is not None
                                              else None)
        self.popularity = popularity
        #: optional request mix: an object with ``draw(rng) -> (rank,
        #: kind)`` (see :class:`.scenario.RequestMix`); takes
        #: precedence over ``popularity`` and also sets arrival kinds.
        self.mix = mix
        self.stats = stats if stats is not None else LoadStats()
        # Completion is tracked per generator, not via `stats`: a
        # LoadStats may be shared across several runs to aggregate,
        # which must not make a later run think it finished early.
        # The target is unknown until the (possibly duration-cut)
        # arrival loop ends.
        self._finished = 0
        self._target: Optional[int] = None
        self._idle: Optional[Event] = None

    def arrivals(self) -> Iterator[Arrival]:
        """The lazily generated arrival stream (consumed by ``run``)."""
        if self._prebuilt is not None:
            return iter(self._prebuilt)
        return self._drawn_arrivals()

    def _drawn_arrivals(self) -> Iterator[Arrival]:
        times = self.schedule.times(self.count, self.sim.now, self.rng)
        for index, time in enumerate(times):
            site = (self.sites[self.rng.randrange(len(self.sites))]
                    if self.sites else None)
            if self.mix is not None:
                rank, kind = self.mix.draw(self.rng)
            else:
                rank = self.popularity.sample() if self.popularity else 0
                kind = "read"
            yield Arrival(index, time, site, rank, kind)

    def run(self) -> Generator[Event, Any, float]:
        """The driver process; returns elapsed simulated seconds.

        ``elapsed = yield from gen.run()`` inside a process, or
        ``sim.process(gen.run())`` to run it standalone.
        """
        start = self.sim.now
        deadline = (start + self.duration if self.duration is not None
                    else None)
        issued = 0
        for arrival in self.arrivals():
            if deadline is not None and arrival.time > deadline:
                break
            if arrival.time > self.sim.now:
                yield self.sim.timeout(arrival.time - self.sim.now)
            self.stats.note_issued()
            issued += 1
            self.sim.start(self._measure(arrival))
        self._target = issued
        if self._finished < issued:
            # Wait for in-flight stragglers — woken exactly once by the
            # last completion, no polling loop.
            self._idle = self.sim.event()
            yield self._idle
        return self.sim.now - start

    def _measure(self, arrival: Arrival) -> Generator:
        yield from measured(self.sim, self.request, arrival, self.stats)
        self._finished += 1
        if self._idle is not None and self._target is not None \
                and self._finished >= self._target:
            self._idle.succeed()
            self._idle = None


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
