"""Unified scenario engine: one abstraction for every way load is made.

The paper's evidence is workload-driven — the departmental web-trace
study (§3.1) and the flash-crowd / partitioning scenarios all hinge on
heterogeneous, time-varying request streams.  Before this module each
experiment built its own request loop; now they all describe *what*
the workload is as a :class:`Scenario` and let the engine drive it
through one open-loop driver and one accounting contract
(:func:`~repro.workloads.loadgen.measured`) into one shared
:class:`LoadStats`.

Four scenario families:

* :class:`OpenLoopScenario` — scheduled arrivals (uniform / Poisson /
  burst / flash crowd) that never wait for the system, optionally with
  a :class:`RequestMix` giving per-object popularity weights and
  read/write kinds.
* :class:`TraceScenario` — replay of a recorded or synthetic trace:
  a :class:`~repro.workloads.population.RequestStream` or any list of
  :class:`~repro.workloads.loadgen.Arrival`\\ s.  Same seed + same
  trace ⇒ identical stats.
* :class:`ClosedLoopScenario` — a population of think-time clients;
  each waits for its own previous request before thinking and issuing
  the next.  The classic interactive-user model, for experiments where
  per-request sequencing matters (GLS lookups, name resolution).
* :class:`HybridScenario` — any combination of the above running
  concurrently against the same system and stats: e.g. a closed-loop
  population of regulars plus an open-loop flash crowd.

An open loop is bounded by its request ``count``.  A closed loop is
bounded either by requests per client or by ``duration`` (simulated
seconds — the open-ended mode, where the request total is an outcome
of the run).

:class:`Soak` composes any scenario with
:class:`~repro.sim.failures.FailureInjector` faults (host
crash/restart, partitions) and end-of-run invariant
checks — the long-haul harness behind ``examples/soak.py``.  Every
soak is sliced into telemetry *phase windows* (pre-fault /
during-fault / recovered) on the stats bundle's
:class:`~repro.analysis.telemetry.MetricsRegistry`, so the report can
answer "what was p95 latency *while* the partition was up?" without
bespoke counters.  That slicing is the one way a drive opens phase
windows; a plain scenario opens none.

Every scenario is driven the same way::

    stats = LoadStats()
    elapsed = world.run_until(world.sim.process(
        scenario.drive(world.sim, do_one, rng=world.rng_for("load"),
                       stats=stats)), limit=1e9)

where ``do_one(arrival)`` is a generator performing one request; the
:class:`~repro.workloads.loadgen.Arrival` carries ``index``, ``time``,
``site``, ``rank`` (object index) and ``kind`` ("read"/"write").  It is
the one request record throughout: a synthesized
:class:`~repro.workloads.population.RequestStream` holds Arrivals, a
trace replays them, and every driver issues them.
"""

from __future__ import annotations

import random
from typing import (Any, Callable, Dict, Generator, Iterable, List,
                    Optional, Sequence, Tuple, Union)

from ..sim.failures import FailureInjector
from ..sim.kernel import Simulator
from ..sim.topology import Domain
from ..sim.transport import Host
from ..sim.world import World
from .loadgen import Arrival, ArrivalSchedule, LoadStats, draw, measured
from .zipf import ZipfSampler

__all__ = [
    "RequestMix",
    "Scenario",
    "OpenLoopScenario",
    "TraceScenario",
    "ClosedLoopScenario",
    "HybridScenario",
    "Soak",
    "SoakReport",
]

RequestFn = Callable[[Arrival], Generator]

# -- request mixes ----------------------------------------------------------

class RequestMix:
    """Per-object popularity weights with a read/write kind mix.

    Replaces the single-object request pool: each draw picks an object
    index (Zipf(``alpha``)) and a kind ("write" with that object's
    ``write_fraction`` probability).  Stateless per draw — determinism
    comes from the caller's RNG, so a mix can be shared between
    scenarios without coupling their draws.
    """

    def __init__(self, object_count: int, alpha: float = 1.0,
                 write_fraction: Union[float, Sequence[float]] = 0.0):
        self._popularity = ZipfSampler(object_count, alpha)
        if isinstance(write_fraction, (int, float)):
            write_fraction = [float(write_fraction)] * object_count
        elif len(write_fraction) != object_count:
            raise ValueError("write_fraction must cover every object")
        if any(not 0.0 <= f <= 1.0 for f in write_fraction):
            raise ValueError("write fractions must be in [0, 1]")
        self.write_fraction = list(write_fraction)

    def draw(self, rng: random.Random) -> Tuple[int, str]:
        """One (object index, kind) draw from the caller's RNG."""
        rank = self._popularity.sample(rng)
        kind = ("write" if rng.random() < self.write_fraction[rank]
                else "read")
        return rank, kind


# -- the scenario abstraction -----------------------------------------------

def _phase_driver(sim: Simulator, registry,
                  marks: Sequence[Tuple[float, str]]) -> Generator:
    """Open each ``(when, label)`` mark's phase window at exactly the
    absolute instant ``when``."""
    for when, label in marks:
        if when > sim.now:
            yield sim.timeout_at(when)
        registry.phase(label, now=sim.now)


def _drawn_arrivals(sim: Simulator, schedule: ArrivalSchedule,
                    count: int,
                    sites: Optional[Sequence[Domain]],
                    mix: Optional[RequestMix],
                    rng: random.Random) -> Iterable[Arrival]:
    """Arrivals drawn lazily, one per schedule time: the time, then a
    uniformly drawn site (when ``sites`` are given), then the mix's
    ``(rank, kind)``, all from ``rng``."""
    times = schedule.times(count, sim.now, rng)
    for index, time in enumerate(times):
        site = sites[rng.randrange(len(sites))] if sites else None
        rank, kind = draw(mix, rng)
        yield Arrival(index, time, site, rank, kind)


def _open_loop(sim: Simulator, request: RequestFn,
               arrivals: Iterable[Arrival], stats: LoadStats
               ) -> Generator[Any, Any, float]:
    """The open-loop driver: start one measured request per arrival at
    its time, never waiting for one to finish; then wait for the
    stragglers and return the elapsed simulated seconds.

    Completion is counted per drive, not through ``stats``: a
    :class:`LoadStats` shared by several drives must not make a later
    one think it finished early.
    """
    start = sim.now
    finished = 0
    target: Optional[int] = None
    idle = None

    def measure(arrival: Arrival) -> Generator:
        nonlocal finished, idle
        yield from measured(sim, request, arrival, stats)
        finished += 1
        if idle is not None and finished >= target:
            idle.succeed()
            idle = None

    issued = 0
    for arrival in arrivals:
        if arrival.time > sim.now:
            yield sim.timeout(arrival.time - sim.now)
        stats.note_issued()
        issued += 1
        sim.start(measure(arrival))
    target = issued
    if finished < issued:
        # Woken exactly once, by the last completion: no polling loop.
        idle = sim.event()
        yield idle
    return sim.now - start


def _check_closed_loop(clients: int, think_time: float,
                       requests_per_client: Optional[int],
                       duration: Optional[float]) -> None:
    """The argument checks every closed-loop driver shares
    (:class:`ClosedLoopScenario` and the cohorts built on it)."""
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


class Scenario:
    """A declarative description of one load pattern.

    Subclasses implement :meth:`build`, returning the generator
    processes that jointly drive the load; :meth:`drive` is the
    engine: it spawns them, waits for all of them (and their
    in-flight requests), and returns the elapsed simulated seconds.
    Phase windows come from a :class:`Soak` around the scenario.
    The open- and closed-loop constructors take a ``label`` naming the
    load for its caller (``gdnbench`` passes its workload's name); the
    engine reads none.
    """

    def build(self, sim: Simulator, request: RequestFn,
              rng: random.Random, stats: LoadStats) -> List[Generator]:
        raise NotImplementedError

    def drive(self, sim: Simulator, request: RequestFn,
              rng: Optional[random.Random] = None,
              stats: Optional[LoadStats] = None
              ) -> Generator[Any, Any, float]:
        """The driver process: ``elapsed = yield from sc.drive(...)``,
        or spawn it via ``sim.process(sc.drive(...))``."""
        rng = rng if rng is not None else random.Random(0)
        stats = stats if stats is not None else LoadStats()
        start = sim.now
        processes = [sim.process(driver)
                     for driver in self.build(sim, request, rng, stats)]
        for process in processes:
            yield process
        return sim.now - start

    @staticmethod
    def _fork(rng: random.Random) -> random.Random:
        """An independent child RNG: concurrent sub-drivers must not
        interleave draws from one stream (event order would couple
        their randomness)."""
        return random.Random(rng.getrandbits(64))


class OpenLoopScenario(Scenario):
    """Scheduled arrivals that never wait for the system.

    Any :class:`~repro.workloads.loadgen.ArrivalSchedule`, with sites
    drawn uniformly per arrival from ``sites`` and an object rank and
    kind from an optional :class:`RequestMix`.  Both are optional: a
    single-site, single-object workload needs neither.  The run issues
    exactly ``count`` arrivals.
    """

    def __init__(self, schedule: ArrivalSchedule, count: int,
                 sites: Optional[Sequence[Domain]] = None,
                 mix: Optional[RequestMix] = None,
                 label: str = "open-loop"):
        if count < 1:
            raise ValueError("count must be >= 1")
        self.schedule = schedule
        self.count = count
        self.sites = list(sites) if sites is not None else None
        self.mix = mix

    def build(self, sim: Simulator, request: RequestFn,
              rng: random.Random, stats: LoadStats) -> List[Generator]:
        arrivals = _drawn_arrivals(sim, self.schedule, self.count,
                                   self.sites, self.mix, self._fork(rng))
        return [_open_loop(sim, request, arrivals, stats)]


class TraceScenario(Scenario):
    """Replay a trace through the engine.

    Two pacing modes:

    * ``"trace"`` (default) — open-loop on the trace's own timestamps:
      event times are relative to the start of the run and each
      becomes an arrival at ``sim.now + time``, overlapping exactly as
      the recorded clients did.
    * ``"sequential"`` — closed-loop, as fast as possible: each
      request is issued when the previous one finishes, in trace
      order.  For A/B comparisons where queueing effects would drown
      the per-request signal.

    ``events`` are :class:`~repro.workloads.loadgen.Arrival`\\ s with
    times relative to the start of the drive; each is issued as a copy
    with its time offset.  Sites pass through as they are, a Domain or
    a site-path string (site-path keyed helpers like
    ``GdnDeployment.browser_pool`` accept both).
    """

    def __init__(self, events: Iterable[Arrival],
                 pacing: str = "trace"):
        self.events = sorted(events, key=lambda event: event.time)
        if not self.events:
            raise ValueError("trace is empty")
        if pacing not in ("trace", "sequential"):
            raise ValueError("pacing must be 'trace' or 'sequential'")
        self.pacing = pacing

    def arrivals(self, sim: Simulator) -> List[Arrival]:
        """The trace as issued: times offset by ``sim.now``."""
        start = sim.now
        return [Arrival(event.index, start + event.time, event.site,
                        event.rank, event.kind)
                for event in self.events]

    def build(self, sim: Simulator, request: RequestFn,
              rng: random.Random, stats: LoadStats) -> List[Generator]:
        arrivals = self.arrivals(sim)
        if self.pacing == "sequential":
            return [self._sequential(sim, request, arrivals, stats)]
        return [_open_loop(sim, request, arrivals, stats)]

    @staticmethod
    def _sequential(sim: Simulator, request: RequestFn,
                    arrivals: List[Arrival], stats: LoadStats) -> Generator:
        for arrival in arrivals:
            stats.note_issued()
            yield from measured(sim, request, arrival, stats)


class ClosedLoopScenario(Scenario):
    """A population of think-time clients.

    Each client loops: think (an exponential or fixed delay of mean
    ``think_time``), issue one request, *wait for it to finish*.  A
    saturated system slows the clients down — exactly the feedback an
    open loop refuses to model, and the right model for sequenced
    interactions.  Clients are placed round-robin over ``sites``;
    objects come from ``mix``.

    Bound each client with ``requests_per_client`` (a fixed quota) or
    ``duration`` (clients keep looping until that much simulated time
    has passed, then finish their in-flight request and stop — the
    open-ended soak mode; :attr:`count` is then ``None``).
    """

    def __init__(self, clients: int, think_time: float,
                 requests_per_client: Optional[int] = None,
                 sites: Optional[Sequence[Domain]] = None,
                 mix: Optional[RequestMix] = None,
                 think: str = "exponential",
                 label: str = "closed-loop",
                 duration: Optional[float] = None):
        _check_closed_loop(clients, think_time, requests_per_client,
                           duration)
        if think not in ("exponential", "fixed"):
            raise ValueError("think must be 'exponential' or 'fixed'")
        self.clients = clients
        self.think_time = think_time
        self.requests_per_client = requests_per_client
        self.duration = duration
        self.sites = list(sites) if sites is not None else None
        self.mix = mix
        self.think = think

    @property
    def count(self) -> Optional[int]:
        if self.requests_per_client is None:
            return None
        return self.clients * self.requests_per_client

    def build(self, sim: Simulator, request: RequestFn,
              rng: random.Random, stats: LoadStats) -> List[Generator]:
        counter = [0]
        return [self._client(client_index, sim, request, self._fork(rng),
                             stats, counter)
                for client_index in range(self.clients)]

    def _think_delay(self, rng: random.Random) -> float:
        if self.think_time == 0.0:
            return 0.0
        if self.think == "fixed":
            return self.think_time
        return rng.expovariate(1.0 / self.think_time)

    def _client(self, client_index: int, sim: Simulator,
                request: RequestFn, rng: random.Random, stats: LoadStats,
                counter: List[int]) -> Generator:
        site = (self.sites[client_index % len(self.sites)]
                if self.sites else None)
        deadline = (sim.now + self.duration if self.duration is not None
                    else None)
        issued = 0
        stalled_cycles = 0
        while True:
            if self.requests_per_client is not None \
                    and issued >= self.requests_per_client:
                break
            cycle_started = sim.now
            delay = self._think_delay(rng)
            if deadline is not None and sim.now + delay >= deadline:
                # This wake would come at or past the deadline: the
                # client sleeps only until then and stops, so the drive
                # ends with the deadline and its last in-flight request.
                if deadline > sim.now:
                    yield sim.timeout_at(deadline)
                break
            if delay > 0:
                yield sim.timeout(delay)
            rank, kind = draw(self.mix, rng)
            index = counter[0]
            counter[0] += 1
            arrival = Arrival(index, sim.now, site, rank, kind)
            stats.note_issued()
            issued += 1
            # Closed loop: measure inline — the client *is* the waiter.
            yield from measured(sim, request, arrival, stats)
            if deadline is not None:
                # A duration bound only ever trips on the simulated
                # clock; zero think time plus zero-time requests would
                # spin here forever.  Surface the livelock instead.
                if sim.now == cycle_started:
                    stalled_cycles += 1
                    if stalled_cycles >= 1000:
                        raise ValueError(
                            "duration-bound closed loop made no "
                            "simulated-time progress for 1000 cycles "
                            "(zero think time and zero-time requests "
                            "can never reach the deadline)")
                else:
                    stalled_cycles = 0


class HybridScenario(Scenario):
    """Several scenarios running concurrently against one system.

    The §3.1 picture in one run: a closed-loop population of regulars
    browsing with think times *plus* an open-loop flash crowd that
    does not care how the system is coping — all accounted in the
    same :class:`LoadStats`.
    """

    def __init__(self, scenarios: Sequence[Scenario]):
        if not scenarios:
            raise ValueError("need at least one scenario")
        self.scenarios = list(scenarios)

    @property
    def count(self) -> Optional[int]:
        """Total requests, or ``None`` if any member is duration-bound
        (its total is only known after the run)."""
        counts = [scenario.count for scenario in self.scenarios]
        if any(count is None for count in counts):
            return None
        return sum(counts)

    def build(self, sim: Simulator, request: RequestFn,
              rng: random.Random, stats: LoadStats) -> List[Generator]:
        drivers: List[Generator] = []
        for scenario in self.scenarios:
            drivers.extend(scenario.build(sim, request, self._fork(rng),
                                          stats))
        return drivers


# -- soak runs: load + faults + invariants + phase windows ------------------

class SoakReport:
    """Outcome of one :class:`Soak` run.

    Besides the run totals, carries the closed
    :class:`~repro.analysis.telemetry.PhaseWindow` per phase
    (pre-fault / during-fault / recovered), so latency, throughput and
    error counts can be reported for each phase separately —
    :meth:`phase_rows` gives the numbers, :meth:`phase_table` the
    rendered table.
    """

    def __init__(self, stats: LoadStats, elapsed: float,
                 fault_log: List[tuple],
                 failures: List[Tuple[str, str]],
                 invariants_checked: int,
                 phases: Optional[List[Any]] = None):
        self.stats = stats
        self.elapsed = elapsed
        self.fault_log = fault_log
        self.failures = failures
        self.invariants_checked = invariants_checked
        #: Closed PhaseWindows tiling the run, in order.
        self.phases = list(phases or [])

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> Dict[str, Any]:
        """Run totals; all-zero (never raising) when nothing completed."""
        out = dict(self.stats.summary())
        out.update({"elapsed": self.elapsed,
                    "throughput": self.stats.throughput(self.elapsed),
                    "faults": len(self.fault_log),
                    "invariants": self.invariants_checked,
                    "violations": len(self.failures)})
        return out

    def phase_rows(self) -> List[Dict[str, Any]]:
        """Per-phase stats dicts, sourced solely from registry windows."""
        return [self.stats.phase_summary(window) for window in self.phases]

    def phase_table(self) -> str:
        """The per-phase report the ROADMAP asked for: throughput,
        latency quantiles and error counts during vs after a fault."""
        from ..analysis.tables import Table, format_rate, format_seconds
        table = Table(["phase", "span", "issued", "ok", "failed",
                       "throughput", "p50 latency", "p95 latency"],
                      title="per-phase telemetry "
                            "(MetricsRegistry windows)")
        for row in self.phase_rows():
            table.add_row(row["phase"], format_seconds(row["duration"]),
                          row["issued"], row["ok"], row["failed"],
                          format_rate(row["throughput"]),
                          format_seconds(row["p50"]),
                          format_seconds(row["p95"]))
        return table.render()


class Soak:
    """Sustained load + fault injection + invariants + phase windows.

    Wraps any :class:`Scenario` with a
    :class:`~repro.sim.failures.FailureInjector` schedule (declare
    faults before :meth:`run`; times are absolute simulation times)
    and named invariant checks evaluated after the load drains and the
    system settles.  An invariant is a callable returning ``False`` or
    raising to signal violation; anything else passes.  Invariants may
    be **window-scoped** (``invariant(..., phase="during-fault")``):
    the check then receives that phase's closed window and can assert
    on in-window deltas instead of run totals.

    The run is automatically sliced into phase windows on the stats
    bundle's registry: ``pre-fault`` until the first scheduled fault
    begins, ``during-fault`` until the last one ends (restart /
    partition heal), and ``recovered`` to the end of the settle
    period.  A fault-free soak gets a single ``steady`` phase, and a
    boundary the run does not reach (a fault that outlasts the settle
    period) opens no window.  Create the stats
    as ``LoadStats(registry=world.metrics)`` to capture kernel,
    network and server instruments in the same windows.
    """

    def __init__(self, world: World, scenario: Scenario,
                 request: RequestFn,
                 rng: Optional[random.Random] = None,
                 stats: Optional[LoadStats] = None,
                 settle: float = 5.0):
        self.world = world
        self.scenario = scenario
        self.request = request
        self.rng = rng if rng is not None else world.rng_for("soak")
        self.stats = stats if stats is not None \
            else LoadStats(registry=world.metrics)
        self.settle = settle
        self.injector = FailureInjector(world)
        self.invariants: List[Tuple[str, Callable, Optional[str]]] = []
        self._fault_spans: List[Tuple[float, float]] = []

    # -- fault schedule (thin FailureInjector passthroughs) -------------

    def crash_restart(self, host: Host, crash_at: float,
                      restart_at: float) -> None:
        self.injector.crash_restart(host, crash_at, restart_at)
        self._fault_spans.append((crash_at, restart_at))

    def partition(self, domain: Domain, start: float,
                  duration: float) -> None:
        self.injector.partition_domain(domain, start, duration)
        self._fault_spans.append((start, start + duration))

    # -- invariants ------------------------------------------------------

    def invariant(self, name: str, check: Callable,
                  phase: Optional[str] = None) -> None:
        """Register an invariant checked after the run settles.

        Plain invariants take no arguments.  With ``phase=`` the
        invariant is **window-scoped**: ``check`` receives the closed
        :class:`~repro.analysis.telemetry.PhaseWindow` of the named
        phase (``"pre-fault"``, ``"during-fault"``, ``"recovered"`` or
        ``"steady"``) so it can assert on what happened
        *inside* that window — e.g. "error rate during the partition
        stayed under 30%" via ``stats.phase_summary(window)``.  A
        window-scoped invariant fails if the run produced no phase
        with that label.
        """
        self.invariants.append((name, check, phase))

    # -- the run ---------------------------------------------------------

    def _phase_marks(self) -> List[Tuple[float, str]]:
        if not self._fault_spans:
            return []
        return [(min(start for start, _ in self._fault_spans),
                 "during-fault"),
                (max(end for _, end in self._fault_spans), "recovered")]

    def run(self, limit: float = 1e9) -> SoakReport:
        registry = self.stats.registry
        marks = self._phase_marks()
        # A phase someone else left open (e.g. an experiment's setup
        # window) is closed first, so it is appended *before* the
        # count and the report's phases are the soak's own.
        registry.end_phase(now=self.world.now)
        phases_before = len(registry.phases)
        registry.phase("pre-fault" if marks else "steady",
                       now=self.world.now)
        marker = (self.world.sim.process(
            _phase_driver(self.world.sim, registry, marks))
            if marks else None)
        driver = self.world.sim.process(
            self.scenario.drive(self.world.sim, self.request,
                                rng=self.rng, stats=self.stats))
        elapsed = self.world.run_until(driver, limit=limit)
        self.world.run(until=self.world.now + self.settle)
        if marker is not None:
            # A mark past the end of the run must not open a window
            # in whatever drives the world next.
            marker.kill()
        registry.end_phase(now=self.world.now)
        phases = registry.phases[phases_before:]
        failures: List[Tuple[str, str]] = []
        for name, check, phase in self.invariants:
            window = None
            if phase is not None:
                window = next((w for w in phases if w.label == phase),
                              None)
                if window is None:
                    failures.append(
                        (name, "no phase window labelled %r (phases: %s)"
                         % (phase, [w.label for w in phases])))
                    continue
            try:
                outcome = check() if window is None else check(window)
            except Exception as exc:  # noqa: BLE001 - reported
                failures.append((name, "%s: %s" % (type(exc).__name__, exc)))
                continue
            if outcome is False:
                failures.append((name, "returned False"))
        return SoakReport(self.stats, elapsed, list(self.injector.log),
                          failures, len(self.invariants), phases=phases)
