"""Aggregated client cohorts: closed-loop populations at 10^5–10^6.

The paper's demand side is "a potentially very large number of people
interested in a particular software package" — but the closed-loop
scenario engine pays one Python generator, one RNG fork and one kernel
timer per simulated browser, which caps realistic populations around
10^3–10^4.  This module merges *k* statistically identical clients at
one site into a single **cohort** driven by one generator:

* :class:`CohortScenario` — a
  :class:`~repro.workloads.scenario.ClosedLoopScenario` (same
  constructor vocabulary and checks, same :class:`~repro.workloads
  .scenario.Scenario` driving contract) that groups its clients into
  per-site cohorts of at most ``cohort_size``, bounded by ``duration``
  and modulated by a :class:`DiurnalProfile`.  Callers that want
  per-client attribution or quotas at small populations, or a fixed or
  zero think time, drive ``ClosedLoopScenario`` itself; a cohort is for
  populations that engine cannot hold.
* :class:`AggregatedPopulation` — the cohort engine: it keeps only a
  *count* of thinking clients and draws the cohort's next
  issue instant from the order statistics of k exponential think
  timers: the minimum of ``n`` independent ``Exp(1/T)`` draws is
  ``Exp(n/T)``, and memorylessness lets the pending draw be discarded
  and redrawn whenever ``n`` changes (a client issues or completes) or
  the activity profile steps.  At the deadline every thinker retires
  and the requests in flight drain.  State per cohort is O(1) however
  large k grows — a million clients cost dozens of cohort objects plus
  one event per actual request.
* :class:`DiurnalProfile` — a piecewise-constant activity multiplier
  over a repeating day, applied to the cohort issue rate with the same
  boundary-redraw sampling :class:`~repro.workloads.loadgen
  .FlashCrowdSchedule` uses (a gap that would cross a rate boundary is
  discarded and redrawn at the boundary, valid by memorylessness).

Cohorts emit exactly the traffic shape the batched network layer
(:meth:`~repro.sim.network.Network.deliver_burst`) is built for:
many same-instant, same-site-pair messages.
"""

from __future__ import annotations

import math
import random
from typing import Generator, List, Optional, Sequence

from ..sim.kernel import Event, Simulator, Timeout
from ..sim.topology import Domain
from .loadgen import Arrival, LoadStats, draw, measured
from .scenario import (ClosedLoopScenario, RequestFn, RequestMix,
                       _check_closed_loop)

__all__ = ["DiurnalProfile", "AggregatedPopulation", "CohortScenario"]


class DiurnalProfile:
    """A repeating piecewise-constant activity multiplier.

    ``multipliers`` are equal-width slots tiling one ``period``
    (default: a day in seconds); a cohort's issue rate at offset ``t``
    from the start of its drive is scaled by ``multiplier_at(t)``.
    Zero slots are allowed (nobody browses at 4am) as long as some
    slot is positive.
    """

    def __init__(self, multipliers: Sequence[float],
                 period: float = 86400.0):
        values = [float(m) for m in multipliers]
        if any(m < 0 for m in values):
            raise ValueError("multipliers cannot be negative")
        if not any(values):
            raise ValueError("at least one slot must be active")
        if period <= 0:
            raise ValueError("period must be positive")
        self.multipliers = values
        self.period = float(period)
        self.slot_width = self.period / len(values)

    @classmethod
    def sinusoidal(cls, slots: int = 24, floor: float = 0.2,
                   period: float = 86400.0) -> "DiurnalProfile":
        """A smooth day/night curve sampled into ``slots``: activity
        bottoms out at ``floor`` at the period's start/end and peaks
        at 1.0 mid-period."""
        if not 0.0 <= floor <= 1.0:
            raise ValueError("floor must be in [0, 1]")
        values = [floor + (1.0 - floor) * 0.5
                  * (1.0 - math.cos(2.0 * math.pi * (i + 0.5) / slots))
                  for i in range(slots)]
        return cls(values, period)

    def multiplier_at(self, offset: float) -> float:
        """The activity multiplier ``offset`` seconds into the drive."""
        slot = int((offset % self.period) / self.slot_width)
        if slot >= len(self.multipliers):  # float edge at the period
            slot = len(self.multipliers) - 1
        return self.multipliers[slot]

    def next_boundary(self, offset: float) -> float:
        """The next slot boundary strictly after ``offset`` (an offset,
        like the argument)."""
        index = math.floor(offset / self.slot_width) + 1
        boundary = index * self.slot_width
        if boundary <= offset:  # float guard on exact-boundary offsets
            boundary = (index + 1) * self.slot_width
        return boundary

    def mean_multiplier(self) -> float:
        return sum(self.multipliers) / len(self.multipliers)


def _reject_zero_think(think_time: float) -> None:
    """A cohort's think time is exponential: its mean must be
    positive."""
    if think_time == 0.0:
        raise ValueError("a cohort needs a positive think time; drive "
                         "zero think through ClosedLoopScenario")


class AggregatedPopulation:
    """k merged closed-loop clients at one site, O(1) state in k.

    The order-statistics engine behind :class:`CohortScenario`,
    usable standalone.  One instance models ``k``
    think-issue-wait clients sharing a site, a request mix and an RNG,
    each thinking an exponential time of mean ``think_time`` (> 0).
    The cohort tracks only how many clients are currently thinking;
    the next issue fires after ``Exp(thinking · a(now) / T)`` where
    ``a`` is the :class:`DiurnalProfile` multiplier.  The
    pending draw is redrawn whenever the thinking count or the profile
    rate changes (memorylessness makes the discard free), exactly as
    :class:`~repro.workloads.loadgen.FlashCrowdSchedule` samples its
    piecewise-constant Poisson process.  Fixed and zero think times
    have no rate to merge; :class:`~repro.workloads.scenario
    .ClosedLoopScenario` drives them per client.

    ``duration`` retires all thinkers at the deadline and lets
    in-flight requests drain, as :class:`~repro.workloads.scenario
    .ClosedLoopScenario`'s clients stop at their deadline.
    """

    def __init__(self, sim: Simulator, request: RequestFn,
                 rng: random.Random, site: Optional[Domain], clients: int,
                 think_time: float, stats: LoadStats, duration: float,
                 profile: DiurnalProfile,
                 counter: Optional[List[int]] = None,
                 mix: Optional[RequestMix] = None):
        _check_closed_loop(clients, think_time, None, duration)
        _reject_zero_think(think_time)
        self.sim = sim
        self.request = request
        self.rng = rng
        self.site = site
        self.think_time = think_time
        self.stats = stats
        self.counter = counter if counter is not None else [0]
        self.mix = mix
        self.duration = duration
        self.profile = profile
        self._thinking = clients
        self._in_flight = 0
        self._issue_timer: Optional[Timeout] = None

    # -- the driver process ---------------------------------------------

    def run(self) -> Generator:
        """The cohort driver: spawn via ``sim.process(cohort.run())``
        (or let :class:`CohortScenario` do it)."""
        sim = self.sim
        self._start = sim.now
        self._deadline = sim.now + self.duration
        sim.timeout_at(self._deadline).add_callback(self._on_deadline)
        self._rearm()
        self._done = sim.event()  # clients >= 1 are thinking
        yield self._done

    # -- issuing ---------------------------------------------------------

    def _draw_arrival(self) -> Arrival:
        rank, kind = draw(self.mix, self.rng)
        index = self.counter[0]
        self.counter[0] += 1
        arrival = Arrival(index, self.sim.now, self.site, rank, kind)
        self.stats.note_issued()
        return arrival

    def _may_issue(self) -> bool:
        return self.sim.now < self._deadline

    def _launch(self, arrival: Arrival) -> None:
        self._in_flight += 1
        self.sim.start(self._measure_one(arrival))

    def _measure_one(self, arrival: Arrival) -> Generator:
        yield from measured(self.sim, self.request, arrival, self.stats)
        self._in_flight -= 1
        if self._may_issue():
            # The client returns to the thinking pool.
            self._thinking += 1
            self._rearm()
        self._check_done()

    # -- order-statistics arming ------------------------------------------

    def _rearm(self) -> None:
        timer = self._issue_timer
        if timer is not None:
            timer.cancel()
        if self._thinking <= 0 or not self._may_issue():
            return
        sim = self.sim
        offset = sim.now - self._start
        multiplier = self.profile.multiplier_at(offset)
        boundary = self.profile.next_boundary(offset)
        if multiplier <= 0.0:
            # Dead slot: sleep to the boundary, no draw to discard.
            timer = sim.timeout_at(self._start + boundary)
            timer.add_callback(self._on_boundary)
            self._issue_timer = timer
            return
        # min of n Exp(1/T) thinkers at activity a ⇒ Exp(n·a/T).
        rate = self._thinking * multiplier / self.think_time
        gap = self.rng.expovariate(rate)
        if offset + gap >= boundary:
            # Boundary-redraw sampling (FlashCrowdSchedule): jump to
            # the boundary and redraw at the new rate.
            timer = sim.timeout_at(self._start + boundary)
            timer.add_callback(self._on_boundary)
        else:
            timer = sim.timeout(gap)
            timer.add_callback(self._on_issue)
        self._issue_timer = timer

    def _on_boundary(self, _event: Event) -> None:
        self._rearm()

    def _on_issue(self, _event: Event) -> None:
        self._thinking -= 1
        self._launch(self._draw_arrival())
        self._rearm()

    # -- lifecycle --------------------------------------------------------

    def _on_deadline(self, _event: Event) -> None:
        # All thinkers retire at the deadline; in-flight requests
        # drain (ClosedLoopScenario's per-client deadline stop, taken
        # all at once).
        self._thinking = 0
        timer = self._issue_timer
        if timer is not None:
            timer.cancel()
        self._check_done()

    def _check_done(self) -> None:
        if self._thinking == 0 and self._in_flight == 0:
            self._done.succeed()


class CohortScenario(ClosedLoopScenario):
    """A closed-loop population driven as per-site aggregated cohorts.

    A duration-bound :class:`~repro.workloads.scenario
    .ClosedLoopScenario` (clients, think_time, duration, sites, mix, and
    their checks) built as cohorts, with exponential think times of a
    positive mean, plus:

    * ``profile`` — the :class:`DiurnalProfile` scaling the cohorts'
      issue rate over the drive (one slot of 1.0 keeps it flat).
    * ``cohort_size`` — at most this many clients share one
      :class:`AggregatedPopulation` driver (one RNG fork per cohort);
      clients are placed round-robin over ``sites`` exactly like the
      reference scenario and grouped per site.

    A cohort trades per-client attribution (it draws think times from
    one stream) for state that no longer grows with the population —
    the only O(k) cost left is the requests the k clients actually
    make.
    """

    def __init__(self, clients: int, think_time: float, duration: float,
                 profile: DiurnalProfile,
                 sites: Optional[Sequence[Domain]] = None,
                 mix: Optional[RequestMix] = None,
                 label: str = "cohort",
                 cohort_size: int = 4096):
        super().__init__(clients, think_time, None, sites, mix,
                         label=label, duration=duration)
        _reject_zero_think(think_time)
        if cohort_size < 1:
            raise ValueError("cohort_size must be >= 1")
        self.cohort_size = cohort_size
        self.profile = profile

    def build(self, sim: Simulator, request: RequestFn,
              rng: random.Random, stats: LoadStats) -> List[Generator]:
        counter = [0]
        site_count = len(self.sites) if self.sites else 1
        drivers: List[Generator] = []
        for site_index in range(site_count):
            # Round-robin placement head-count, computed directly.
            total = (self.clients // site_count
                     + (1 if site_index < self.clients % site_count
                        else 0))
            site = self.sites[site_index] if self.sites else None
            while total > 0:
                size = min(total, self.cohort_size)
                total -= size
                cohort = AggregatedPopulation(
                    sim, request, self._fork(rng), site, size,
                    self.think_time, stats, self.duration, self.profile,
                    counter, mix=self.mix)
                drivers.append(cohort.run())
        return drivers
