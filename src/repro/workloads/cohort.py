"""Aggregated client cohorts: closed-loop populations at 10^5–10^6.

The paper's demand side is "a potentially very large number of people
interested in a particular software package" — but the closed-loop
scenario engine pays one Python generator, one RNG fork and one kernel
timer per simulated browser, which caps realistic populations around
10^3–10^4.  This module merges *k* statistically identical clients at
one site into a single **cohort** driven by one generator:

* :class:`CohortScenario` — a drop-in sibling of
  :class:`~repro.workloads.scenario.ClosedLoopScenario` (same
  constructor vocabulary, same :class:`~repro.workloads.scenario
  .Scenario` driving contract) that groups its clients into per-site
  cohorts of at most ``cohort_size``.  Callers that want per-client
  attribution at small populations drive ``ClosedLoopScenario``
  itself; a cohort is for populations that engine cannot hold.
* :class:`AggregatedPopulation` — the cohort engine: it keeps only a
  *count* of thinking clients and draws the cohort's next
  issue instant from the order statistics of k exponential think
  timers: the minimum of ``n`` independent ``Exp(1/T)`` draws is
  ``Exp(n/T)``, and memorylessness lets the pending draw be discarded
  and redrawn whenever ``n`` changes (a client issues or completes) or
  the activity profile steps.  State per cohort is O(1) however large
  k grows — a million clients cost dozens of cohort objects plus one
  event per actual request.
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
from heapq import heappop, heappush
from typing import Generator, List, Optional, Sequence, Tuple

from ..sim.kernel import Event, Simulator, Timeout
from ..sim.topology import Domain
from .loadgen import Arrival, LoadStats, measured
from .scenario import RequestFn, RequestMix, Scenario

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
        if not values:
            raise ValueError("need at least one multiplier slot")
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


class AggregatedPopulation:
    """k merged closed-loop clients at one site, O(1) state in k.

    The order-statistics engine behind :class:`CohortScenario`,
    usable standalone.  One instance models ``k``
    think-issue-wait clients sharing a site, a request mix and an RNG:

    * **exponential** think — the cohort tracks only how many clients
      are currently thinking; the next issue fires after
      ``Exp(thinking · a(now) / T)`` where ``a`` is the optional
      :class:`DiurnalProfile` multiplier.  The pending draw is redrawn
      whenever the thinking count or the profile rate changes
      (memorylessness makes the discard free), exactly as
      :class:`~repro.workloads.loadgen.FlashCrowdSchedule` samples its
      piecewise-constant Poisson process.
    * **fixed** think — deterministic wake instants kept in a heap of
      ``(time, count)`` groups; all clients waking at one instant
      issue as one burst (the lockstep traffic shape
      :meth:`~repro.sim.network.Network.deliver_burst` batches).
      Profiles do not apply to fixed think (no rate to scale) and are
      rejected.
    * **zero** think — completion-driven inline loops, no timers at
      all, with the same stalled-cycle livelock guard as
      :class:`~repro.workloads.scenario.ClosedLoopScenario`.

    Quotas are pooled: ``requests_per_client`` bounds the cohort at
    ``clients × requests_per_client`` total issues (per-client
    attribution is meaningless for merged clients).  ``duration``
    retires all thinkers at the deadline and lets in-flight requests
    drain, as :class:`~repro.workloads.scenario.ClosedLoopScenario`'s
    clients stop at their deadline.
    """

    def __init__(self, sim: Simulator, request: RequestFn,
                 rng: random.Random, site: Optional[Domain], clients: int,
                 think_time: float, stats: LoadStats,
                 counter: Optional[List[int]] = None,
                 mix: Optional[RequestMix] = None,
                 think: str = "exponential",
                 requests_per_client: Optional[int] = None,
                 duration: Optional[float] = None,
                 profile: Optional[DiurnalProfile] = None):
        if clients < 1:
            raise ValueError("need at least one client")
        if (requests_per_client is None) == (duration is None):
            raise ValueError("bound the clients with either "
                             "requests_per_client or duration")
        if requests_per_client is not None and requests_per_client < 1:
            raise ValueError("need at least one request per client")
        if duration is not None and duration <= 0:
            raise ValueError("duration must be positive")
        if think_time < 0:
            raise ValueError("think time cannot be negative")
        if think not in ("exponential", "fixed"):
            raise ValueError("think must be 'exponential' or 'fixed'")
        if profile is not None and (think != "exponential"
                                    or think_time == 0.0):
            raise ValueError("activity profiles need exponential think "
                             "times (there is no rate to scale "
                             "otherwise)")
        self.sim = sim
        self.request = request
        self.rng = rng
        self.site = site
        self.clients = clients
        self.think_time = think_time
        self.stats = stats
        self.counter = counter if counter is not None else [0]
        self.mix = mix
        self.think = think
        self.requests_per_client = requests_per_client
        self.duration = duration
        self.profile = profile
        self._quota: Optional[int] = (
            clients * requests_per_client
            if requests_per_client is not None else None)
        self._thinking = clients
        self._in_flight = 0
        self._start = 0.0
        self._deadline: Optional[float] = None
        self._issue_timer: Optional[Timeout] = None
        self._armed_at = 0.0
        self._wakes: list = []  # fixed think: heap of (time, count)
        self._done: Optional[Event] = None

    # -- the driver process ---------------------------------------------

    def run(self) -> Generator:
        """The cohort driver: spawn via ``sim.process(cohort.run())``
        (or let :class:`CohortScenario` do it)."""
        sim = self.sim
        self._start = sim.now
        if self.duration is not None:
            self._deadline = sim.now + self.duration
            guard = sim.timeout_at(self._deadline)
            guard.add_callback(self._on_deadline)
        if self.think_time == 0.0:
            # Zero think: every client is permanently in flight;
            # completion-driven inline loops, no timers.
            launch = self.clients
            if self._quota is not None:
                launch = min(launch, self._quota)
            self._thinking -= launch
            if self._quota is not None and launch == self._quota:
                self._thinking = 0  # never-launched clients retire
            for _ in range(launch):
                self._launch_loop(self._draw_arrival())
        elif self.think == "fixed":
            heappush(self._wakes, (sim.now + self.think_time,
                                   self.clients))
            self._rearm_fixed()
        else:
            self._rearm()
        if self._thinking > 0 or self._in_flight > 0:
            self._done = sim.event()
            yield self._done

    # -- issuing ---------------------------------------------------------

    def _draw_arrival(self) -> Arrival:
        if self.mix is not None:
            rank, kind = self.mix.draw(self.rng)
        else:
            rank, kind = 0, "read"
        index = self.counter[0]
        self.counter[0] += 1
        arrival = Arrival(index, self.sim.now, self.site, rank, kind)
        self.stats.note_issued()
        if self._quota is not None:
            self._quota -= 1
            if self._quota <= 0:
                # Pool exhausted: clients still thinking will never
                # issue again; retire them so the drive can finish.
                self._thinking = 0
        return arrival

    def _may_issue(self) -> bool:
        if self._quota is not None and self._quota <= 0:
            return False
        if self._deadline is not None and self.sim.now >= self._deadline:
            return False
        return True

    def _launch(self, arrival: Arrival) -> None:
        self._in_flight += 1
        self.sim.start(self._measure_one(arrival))

    def _launch_loop(self, arrival: Arrival) -> None:
        self._in_flight += 1
        self.sim.process(self._run_loop(arrival))

    def _measure_one(self, arrival: Arrival) -> Generator:
        yield from measured(self.sim, self.request, arrival, self.stats)
        self._in_flight -= 1
        if self._may_issue():
            # The client returns to the thinking pool.
            self._thinking += 1
            if self.think == "fixed":
                heappush(self._wakes,
                         (self.sim.now + self.think_time, 1))
                self._rearm_fixed()
            else:
                self._rearm()
        self._check_done()

    def _run_loop(self, arrival: Arrival) -> Generator:
        # Zero-think inline loop: issue, wait, reissue immediately —
        # the reference client's delay==0 path, including its
        # duration-bound livelock guard.
        sim = self.sim
        stalled = 0
        cycle_started = sim.now
        while True:
            yield from measured(sim, self.request, arrival, self.stats)
            if self._deadline is not None:
                if sim.now == cycle_started:
                    stalled += 1
                    if stalled >= 1000:
                        raise ValueError(
                            "duration-bound cohort made no "
                            "simulated-time progress for 1000 cycles "
                            "(zero think time and zero-time requests "
                            "can never reach the deadline)")
                else:
                    stalled = 0
            if not self._may_issue():
                break
            cycle_started = sim.now
            arrival = self._draw_arrival()
        self._in_flight -= 1
        self._check_done()

    # -- exponential think: order-statistics arming ----------------------

    def _rearm(self) -> None:
        timer = self._issue_timer
        if timer is not None:
            timer.cancel()
            self._issue_timer = None
        if self._thinking <= 0 or not self._may_issue():
            return
        sim = self.sim
        offset = sim.now - self._start
        if self.profile is not None:
            multiplier = self.profile.multiplier_at(offset)
            boundary: Optional[float] = self.profile.next_boundary(offset)
        else:
            multiplier = 1.0
            boundary = None
        if multiplier <= 0.0:
            # Dead slot: sleep to the boundary, no draw to discard.
            timer = sim.timeout_at(self._start + boundary)
            timer.add_callback(self._on_boundary)
            self._issue_timer = timer
            return
        # min of n Exp(1/T) thinkers at activity a ⇒ Exp(n·a/T).
        rate = self._thinking * multiplier / self.think_time
        gap = self.rng.expovariate(rate)
        if boundary is not None and offset + gap >= boundary:
            # Boundary-redraw sampling (FlashCrowdSchedule): jump to
            # the boundary and redraw at the new rate.
            timer = sim.timeout_at(self._start + boundary)
            timer.add_callback(self._on_boundary)
        else:
            timer = sim.timeout(gap)
            timer.add_callback(self._on_issue)
        self._issue_timer = timer

    def _on_boundary(self, _event: Event) -> None:
        self._issue_timer = None
        self._rearm()

    def _on_issue(self, _event: Event) -> None:
        self._issue_timer = None
        self._thinking -= 1
        self._launch(self._draw_arrival())
        self._rearm()
        self._check_done()

    # -- fixed think: grouped wake heap ----------------------------------

    def _rearm_fixed(self) -> None:
        if not self._wakes:
            return
        head = self._wakes[0][0]
        timer = self._issue_timer
        if timer is not None:
            if self._armed_at <= head:
                return
            timer.cancel()
        timer = self.sim.timeout_at(head)
        timer.add_callback(self._on_fixed_wake)
        self._issue_timer = timer
        self._armed_at = head

    def _on_fixed_wake(self, _event: Event) -> None:
        self._issue_timer = None
        now = self.sim.now
        waking = 0
        while self._wakes and self._wakes[0][0] <= now:
            waking += heappop(self._wakes)[1]
        for _ in range(waking):
            self._thinking -= 1
            if not self._may_issue():
                continue  # the client retires (deadline/quota)
            self._launch(self._draw_arrival())
        self._rearm_fixed()
        self._check_done()

    # -- lifecycle --------------------------------------------------------

    def _on_deadline(self, _event: Event) -> None:
        # All thinkers retire at the deadline; in-flight requests
        # drain (ClosedLoopScenario's per-client deadline stop, taken
        # all at once).
        self._thinking = 0
        self._wakes.clear()
        timer = self._issue_timer
        if timer is not None:
            timer.cancel()
            self._issue_timer = None
        self._check_done()

    def _check_done(self) -> None:
        if self._thinking == 0 and self._in_flight == 0 \
                and self._done is not None:
            done = self._done
            self._done = None
            done.succeed()


class CohortScenario(Scenario):
    """A closed-loop population driven as per-site aggregated cohorts.

    The constructor vocabulary of :class:`~repro.workloads.scenario
    .ClosedLoopScenario` (clients, think_time, requests_per_client /
    duration, sites, mix, think, phases), plus:

    * ``cohort_size`` — at most this many clients share one
      :class:`AggregatedPopulation` driver (one RNG fork per cohort);
      clients are placed round-robin over ``sites`` exactly like the
      reference scenario and grouped per site.
    * ``profile`` — an optional :class:`DiurnalProfile` scaling the
      cohorts' issue rate over the drive (exponential think only).

    A cohort trades per-client attribution (it pools its quota and
    draws think times from one stream) for state that no longer grows
    with the population — the only O(k) cost left is the requests the
    k clients actually make.
    """

    def __init__(self, clients: int, think_time: float,
                 requests_per_client: Optional[int] = None,
                 sites: Optional[Sequence[Domain]] = None,
                 mix: Optional[RequestMix] = None,
                 think: str = "exponential",
                 label: str = "cohort",
                 duration: Optional[float] = None,
                 phases: Optional[Sequence[Tuple[float, str]]] = None,
                 cohort_size: int = 4096,
                 profile: Optional[DiurnalProfile] = None):
        if clients < 1:
            raise ValueError("need at least one client")
        if (requests_per_client is None) == (duration is None):
            raise ValueError("bound the clients with either "
                             "requests_per_client or duration")
        if requests_per_client is not None and requests_per_client < 1:
            raise ValueError("need at least one request per client")
        if duration is not None and duration <= 0:
            raise ValueError("duration must be positive")
        if think_time < 0:
            raise ValueError("think time cannot be negative")
        if think not in ("exponential", "fixed"):
            raise ValueError("think must be 'exponential' or 'fixed'")
        if cohort_size < 1:
            raise ValueError("cohort_size must be >= 1")
        if profile is not None and (think != "exponential"
                                    or think_time == 0.0):
            raise ValueError("activity profiles need exponential think "
                             "times")
        self.clients = clients
        self.think_time = think_time
        self.requests_per_client = requests_per_client
        self.duration = duration
        self.sites = list(sites) if sites is not None else None
        self.mix = mix
        self.think = think
        self.label = label
        self.cohort_size = cohort_size
        self.profile = profile
        self.phases = self._validated_phases(phases)

    @property
    def count(self) -> Optional[int]:
        if self.requests_per_client is None:
            return None
        return self.clients * self.requests_per_client

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
                    self.think_time, stats, counter, mix=self.mix,
                    think=self.think,
                    requests_per_client=self.requests_per_client,
                    duration=self.duration, profile=self.profile)
                drivers.append(cohort.run())
        return drivers
