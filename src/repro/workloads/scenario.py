"""Unified scenario engine: one abstraction for every way load is made.

The paper's evidence is workload-driven — the departmental web-trace
study (§3.1) and the flash-crowd / partitioning scenarios all hinge on
heterogeneous, time-varying request streams.  Before this module each
experiment built its own request loop; now they all describe *what*
the workload is as a :class:`Scenario` and let the engine drive it
through :class:`~repro.workloads.loadgen.LoadGenerator`-style
accounting into one shared :class:`LoadStats`.

Four scenario families:

* :class:`OpenLoopScenario` — scheduled arrivals (uniform / Poisson /
  burst / flash crowd) that never wait for the system, optionally with
  a :class:`RequestMix` giving per-object popularity weights and
  read/write kinds.
* :class:`TraceScenario` — replay of a recorded or synthetic trace:
  a :class:`~repro.workloads.population.RequestStream`, a list of
  :class:`TraceEvent`, or a CSV/JSONL trace file written by
  :func:`save_trace`.  Same seed + same trace ⇒ identical stats.
* :class:`ClosedLoopScenario` — a population of think-time clients;
  each waits for its own previous request before thinking and issuing
  the next.  The classic interactive-user model, for experiments where
  per-request sequencing matters (GLS lookups, name resolution).
* :class:`HybridScenario` — any combination of the above running
  concurrently against the same system and stats: e.g. a closed-loop
  population of regulars plus an open-loop flash crowd.

Open- and closed-loop scenarios are bounded either by request
``count`` or by ``duration`` (simulated seconds — the open-ended soak
mode, where the request total is an outcome of the run).

:class:`Soak` composes any scenario with
:class:`~repro.sim.failures.FailureInjector` faults (host
crash/restart, partitions) and end-of-run invariant checks — the
long-haul harness behind ``examples/soak.py``.  Every soak is sliced
into telemetry *phase windows* (pre-fault / during-fault / recovered)
on the stats bundle's :class:`~repro.analysis.telemetry
.MetricsRegistry`, so the report can answer "what was p95 latency
*while* the partition was up?" without bespoke counters.

A small corpus of recorded traces is committed under
:data:`TRACE_DIR` (see ``traces/README.md``) for cross-PR replay
regression tests; :func:`bundled_trace` resolves a corpus entry.

Every scenario is driven the same way::

    stats = LoadStats()
    elapsed = world.run_until(world.sim.process(
        scenario.drive(world.sim, do_one, rng=world.rng_for("load"),
                       stats=stats)), limit=1e9)

where ``do_one(arrival)`` is a generator performing one request; the
arrival carries ``site``, ``rank`` (object index) and ``kind``
("read"/"write").
"""

from __future__ import annotations

import csv
import json
import pathlib
import random
from typing import (Any, Callable, Dict, Generator, Iterable, List,
                    Optional, Sequence, Tuple, Union)

from ..sim.failures import FailureInjector
from ..sim.kernel import Simulator
from ..sim.topology import Domain, Topology
from ..sim.transport import Host
from ..sim.world import World
from .loadgen import (Arrival, ArrivalSchedule, LoadGenerator, LoadStats,
                      measured)
from .population import RequestStream
from .zipf import ZipfSampler

__all__ = [
    "TRACE_DIR",
    "TraceEvent",
    "bundled_trace",
    "record_stream",
    "save_trace",
    "load_trace",
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

#: The committed trace regression corpus: small recorded workloads
#: replayed identically across runs and PRs (see traces/README.md for
#: how to record a new one with :func:`save_trace`).
TRACE_DIR = pathlib.Path(__file__).parent / "traces"


def bundled_trace(name: str) -> pathlib.Path:
    """Path of a committed regression trace (``mixed_small.jsonl``,
    ...); raises if the corpus does not contain it."""
    path = TRACE_DIR / name
    if not path.exists():
        raise FileNotFoundError("no bundled trace %r under %s"
                                % (name, TRACE_DIR))
    return path


# -- trace format -----------------------------------------------------------

class TraceEvent:
    """One line of a trace: relative time, kind, object, origin site."""

    __slots__ = ("time", "kind", "object_index", "site")

    def __init__(self, time: float, kind: str, object_index: int,
                 site: Union[Domain, str, None] = None):
        self.time = time
        self.kind = kind
        self.object_index = object_index
        self.site = site

    @property
    def site_path(self) -> Optional[str]:
        if self.site is None:
            return None
        return getattr(self.site, "path", self.site)

    def __repr__(self) -> str:
        return ("TraceEvent(%.3fs %s obj%d @ %s)"
                % (self.time, self.kind, self.object_index,
                   self.site_path or "-"))


def record_stream(stream: Iterable) -> List[TraceEvent]:
    """Adapt a :class:`RequestStream` (or any iterable of objects with
    ``time``/``kind``/``object_index``/``site``) into trace events."""
    return [TraceEvent(request.time, request.kind, request.object_index,
                       request.site)
            for request in stream]


def save_trace(path: Union[str, pathlib.Path],
               events: Iterable[TraceEvent]) -> None:
    """Write a trace file; format picked by suffix (.csv or .jsonl).

    The recorder half of trace replay: synthesize a workload once
    (e.g. via :class:`~repro.workloads.population.ClientPopulation`
    and :func:`record_stream`), save it, and replay the identical
    stream across runs and PRs.
    """
    path = pathlib.Path(path)
    if path.suffix == ".csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "kind", "object", "site"])
            for event in events:
                writer.writerow(["%r" % event.time, event.kind,
                                 event.object_index, event.site_path or ""])
    elif path.suffix == ".jsonl":
        with path.open("w") as fh:
            for event in events:
                fh.write(json.dumps({
                    "time": event.time, "kind": event.kind,
                    "object": event.object_index,
                    "site": event.site_path}) + "\n")
    else:
        raise ValueError("unknown trace format %r (use .csv or .jsonl)"
                         % path.suffix)


def load_trace(path: Union[str, pathlib.Path]) -> List[TraceEvent]:
    """Read a trace file written by :func:`save_trace`."""
    path = pathlib.Path(path)
    events: List[TraceEvent] = []
    if path.suffix == ".csv":
        with path.open(newline="") as fh:
            for row in csv.DictReader(fh):
                events.append(TraceEvent(float(row["time"]), row["kind"],
                                         int(row["object"]),
                                         row["site"] or None))
    elif path.suffix == ".jsonl":
        with path.open() as fh:
            for line in fh:
                if not line.strip():
                    continue
                raw = json.loads(line)
                events.append(TraceEvent(float(raw["time"]), raw["kind"],
                                         int(raw["object"]),
                                         raw.get("site")))
    else:
        raise ValueError("unknown trace format %r (use .csv or .jsonl)"
                         % path.suffix)
    return events


# -- request mixes ----------------------------------------------------------

class RequestMix:
    """Per-object popularity weights with a read/write kind mix.

    Replaces the single-object request pool: each draw picks an object
    index (Zipf(``alpha``) by default, or explicit ``weights``) and a
    kind ("write" with that object's ``write_fraction`` probability).
    Stateless per draw — determinism comes from the caller's RNG, so a
    mix can be shared between scenarios without coupling their draws.
    """

    def __init__(self, object_count: int, alpha: float = 1.0,
                 weights: Optional[Sequence[float]] = None,
                 write_fraction: Union[float, Sequence[float]] = 0.0):
        self.object_count = object_count
        self._popularity = ZipfSampler(
            object_count, alpha,
            weights=list(weights) if weights is not None else None)
        if isinstance(write_fraction, (int, float)):
            write_fraction = [float(write_fraction)] * object_count
        elif len(write_fraction) != object_count:
            raise ValueError("write_fraction must cover every object")
        if any(not 0.0 <= f <= 1.0 for f in write_fraction):
            raise ValueError("write fractions must be in [0, 1]")
        self.write_fraction = list(write_fraction)

    def probability(self, rank: int) -> float:
        return self._popularity.probability(rank)

    def draw(self, rng: random.Random) -> Tuple[int, str]:
        """One (object index, kind) draw from the caller's RNG."""
        rank = self._popularity.sample(rng)
        kind = ("write" if rng.random() < self.write_fraction[rank]
                else "read")
        return rank, kind


# -- the scenario abstraction -----------------------------------------------

class Scenario:
    """A declarative description of one load pattern.

    Subclasses implement :meth:`build`, returning the generator
    processes that jointly drive the load; :meth:`drive` is the
    engine: it spawns them, waits for all of them (and their
    in-flight requests), and returns the elapsed simulated seconds.

    Any scenario can carry **phase marks** (:attr:`phases`, exposed as
    a ``phases=`` constructor argument on the open- and closed-loop
    scenarios): a sequence of ``(offset_seconds, label)`` pairs, each
    opening a named phase window on the stats bundle's
    :class:`~repro.analysis.telemetry.MetricsRegistry` that many
    seconds after the drive starts.  Consecutive marks tile the run
    exactly like a :class:`Soak`'s automatic fault slicing — but
    without having to wrap the scenario in a ``Soak`` — so
    ``stats.phase_summary(window)`` can answer "what was p95 during
    the spike?" for a plain load run.  The windows land in
    ``stats.registry.phases`` when the drive finishes (a phase someone
    else left open is closed first, and marks beyond the end of the
    run are dropped).
    """

    label = "scenario"
    #: Optional ``[(offset_seconds, label), ...]`` phase marks.
    phases: Optional[List[Tuple[float, str]]] = None

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
        phase_proc = None
        if self.phases:
            # Close any foreign open phase so this scenario's windows
            # are cleanly attributable (mirrors Soak.run).  Spawned
            # *before* the load drivers: an offset-0 mark must open
            # its window before the first arrival is issued.
            stats.registry.end_phase(now=sim.now)
            phase_proc = sim.process(
                self._phase_driver(sim, stats.registry, start))
        processes = [sim.process(driver)
                     for driver in self.build(sim, request, rng, stats)]
        for process in processes:
            yield process
        if phase_proc is not None:
            if phase_proc.alive:  # marks beyond the end of the run
                phase_proc.kill()
            stats.registry.end_phase(now=sim.now)
        return sim.now - start

    def _phase_driver(self, sim: Simulator, registry,
                      start: float) -> Generator:
        for offset, label in self.phases:
            when = start + offset
            if when > sim.now:
                yield sim.timeout_at(when)
            registry.phase(label, now=sim.now)

    @staticmethod
    def _validated_phases(
            phases: Optional[Sequence[Tuple[float, str]]]
    ) -> Optional[List[Tuple[float, str]]]:
        """Normalise ``phases=``: non-negative offsets, sorted."""
        if phases is None:
            return None
        marks: List[Tuple[float, str]] = []
        for offset, label in phases:
            offset = float(offset)
            if offset < 0:
                raise ValueError("phase offsets are relative to the "
                                 "start of the drive; %r is negative"
                                 % offset)
            marks.append((offset, str(label)))
        marks.sort(key=lambda mark: mark[0])
        return marks or None

    @staticmethod
    def _fork(rng: random.Random) -> random.Random:
        """An independent child RNG: concurrent sub-drivers must not
        interleave draws from one stream (event order would couple
        their randomness)."""
        return random.Random(rng.getrandbits(64))


class OpenLoopScenario(Scenario):
    """Scheduled arrivals that never wait for the system.

    A thin declarative wrapper over :class:`LoadGenerator`: any
    :class:`~repro.workloads.loadgen.ArrivalSchedule` plus optional
    site placement and a :class:`RequestMix` (or ``popularity``
    sampler) for multi-object workloads.

    Bound the run with either ``count`` (exactly that many arrivals)
    or ``duration`` (arrivals until that much simulated time has
    passed — open-ended soaks stop on the clock; :attr:`count` is then
    ``None`` because the total is an outcome of the run).

    ``phases=[(0.0, "warmup"), (5.0, "spike"), ...]`` marks named
    telemetry phase windows at offsets from the start of the drive —
    no :class:`Soak` wrapper needed (see :class:`Scenario`).
    """

    def __init__(self, schedule: ArrivalSchedule, count: Optional[int] = None,
                 sites: Optional[Sequence[Domain]] = None,
                 mix: Optional[RequestMix] = None,
                 popularity: Optional[Any] = None,
                 label: str = "open-loop",
                 duration: Optional[float] = None,
                 phases: Optional[Sequence[Tuple[float, str]]] = None):
        if (count is None) == (duration is None):
            raise ValueError("bound the scenario with either count "
                             "or duration")
        if duration is not None and duration <= 0:
            raise ValueError("duration must be positive")
        self.schedule = schedule
        self.count = count
        self.duration = duration
        self.sites = list(sites) if sites is not None else None
        self.mix = mix
        self.popularity = popularity
        self.label = label
        #: ``[(offset, label), ...]`` marks opening named phase
        #: windows on the stats registry (see :class:`Scenario`).
        self.phases = self._validated_phases(phases)

    def build(self, sim: Simulator, request: RequestFn,
              rng: random.Random, stats: LoadStats) -> List[Generator]:
        generator = LoadGenerator(sim, self.schedule, request, self.count,
                                  rng=self._fork(rng), sites=self.sites,
                                  popularity=self.popularity,
                                  stats=stats, mix=self.mix,
                                  duration=self.duration)
        return [generator.run()]


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

    Arrivals carry the trace's site, object index (as
    ``arrival.rank``) and kind.  Sites are resolved against
    ``topology`` when one is supplied; otherwise Domains pass through
    as-is and plain path strings are handed to the request callable
    unresolved (site-path keyed helpers like
    ``GdnDeployment.browser_pool`` accept both).
    """

    def __init__(self, events: Iterable[TraceEvent],
                 topology: Optional[Topology] = None,
                 pacing: str = "trace",
                 label: str = "trace"):
        self.events = list(events)
        if not self.events:
            raise ValueError("trace is empty")
        if pacing not in ("trace", "sequential"):
            raise ValueError("pacing must be 'trace' or 'sequential'")
        self.topology = topology
        self.pacing = pacing
        self.label = label

    @classmethod
    def from_stream(cls, stream: RequestStream, pacing: str = "trace",
                    label: str = "trace") -> "TraceScenario":
        """Replay a synthesized :class:`RequestStream` (webtrace,
        population) — the bridge from the §3.1 generators."""
        return cls(record_stream(stream), pacing=pacing, label=label)

    @classmethod
    def from_file(cls, path: Union[str, pathlib.Path],
                  topology: Optional[Topology] = None) -> "TraceScenario":
        """Replay a recorded CSV/JSONL trace file."""
        return cls(load_trace(path), topology=topology,
                   label="trace:%s" % pathlib.Path(path).name)

    @property
    def count(self) -> int:
        return len(self.events)

    def arrivals(self, sim: Simulator) -> List[Arrival]:
        start = sim.now
        arrivals = []
        for index, event in enumerate(self.events):
            site = event.site
            if self.topology is not None and isinstance(site, str):
                site = self.topology.site(site)
            arrivals.append(Arrival(index, start + event.time, site,
                                    event.object_index, event.kind))
        arrivals.sort(key=lambda a: a.time)
        return arrivals

    def build(self, sim: Simulator, request: RequestFn,
              rng: random.Random, stats: LoadStats) -> List[Generator]:
        arrivals = self.arrivals(sim)
        if self.pacing == "sequential":
            return [self._sequential(sim, request, arrivals, stats)]
        generator = LoadGenerator(sim, None, request, arrivals=arrivals,
                                  rng=self._fork(rng), stats=stats)
        return [generator.run()]

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

    ``phases=`` marks named telemetry phase windows at offsets from
    the start of the drive, as on :class:`OpenLoopScenario`.
    """

    def __init__(self, clients: int, think_time: float,
                 requests_per_client: Optional[int] = None,
                 sites: Optional[Sequence[Domain]] = None,
                 mix: Optional[RequestMix] = None,
                 think: str = "exponential",
                 label: str = "closed-loop",
                 duration: Optional[float] = None,
                 phases: Optional[Sequence[Tuple[float, str]]] = None):
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
        self.clients = clients
        self.think_time = think_time
        self.requests_per_client = requests_per_client
        self.duration = duration
        self.sites = list(sites) if sites is not None else None
        self.mix = mix
        self.think = think
        self.label = label
        #: ``[(offset, label), ...]`` marks opening named phase
        #: windows on the stats registry (see :class:`Scenario`).
        self.phases = self._validated_phases(phases)

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
            if self.mix is not None:
                rank, kind = self.mix.draw(rng)
            else:
                rank, kind = 0, "read"
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

    def __init__(self, scenarios: Sequence[Scenario],
                 label: str = "hybrid"):
        if not scenarios:
            raise ValueError("need at least one scenario")
        self.scenarios = list(scenarios)
        self.label = label

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
    period.  A fault-free soak gets a single ``steady`` phase.  Extra
    boundaries can be added with :meth:`mark_phase`.  Create the stats
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
        self._extra_marks: List[Tuple[float, str]] = []

    # -- fault schedule (thin FailureInjector passthroughs) -------------

    def crash_restart(self, host: Host, crash_at: float, restart_at: float,
                      recover: Optional[Callable[[], None]] = None) -> None:
        self.injector.crash_restart(host, crash_at, restart_at, recover)
        self._fault_spans.append((crash_at, restart_at))

    def partition(self, domain: Domain, start: float,
                  duration: float) -> None:
        self.injector.partition_domain(domain, start, duration)
        self._fault_spans.append((start, start + duration))

    def loss_window(self, level, probability: float, start: float,
                    end: float) -> None:
        """Transient datagram loss across ``level`` boundaries; the
        prior loss rate is restored when the window closes."""
        self.injector.loss_window(level, probability, start, end)
        self._fault_spans.append((start, end))

    def mark_phase(self, when: float, label: str) -> None:
        """Open a custom phase window at absolute time ``when``."""
        self._extra_marks.append((when, label))

    # -- invariants ------------------------------------------------------

    def invariant(self, name: str, check: Callable,
                  phase: Optional[str] = None) -> None:
        """Register an invariant checked after the run settles.

        Plain invariants take no arguments.  With ``phase=`` the
        invariant is **window-scoped**: ``check`` receives the closed
        :class:`~repro.analysis.telemetry.PhaseWindow` of the named
        phase (``"during-fault"``, ``"recovered"``, or a
        :meth:`mark_phase` label) so it can assert on what happened
        *inside* that window — e.g. "error rate during the partition
        stayed under 30%" via ``stats.phase_summary(window)``.  A
        window-scoped invariant fails if the run produced no phase
        with that label.
        """
        self.invariants.append((name, check, phase))

    def serve_stale_invariant(self, caches: Sequence = (),
                              max_error_rate: float = 0.05,
                              require_stale_hits: bool = True,
                              phase: str = "during-fault",
                              name: str = "serve-stale-availability"
                              ) -> None:
        """The flash-crowd availability invariant (GLS partition).

        Window-scoped on the fault phase: requests issued while the
        location service is partitioned must still mostly succeed —
        the failed fraction stays at or below ``max_error_rate`` —
        and, when ``require_stale_hits`` is set and metrics-bound
        :class:`~repro.gdn.cache.GlsLookupCache` instances are given,
        at least one of them must have answered from a stale entry
        inside the window (proof the availability came from
        serve-stale, not from bindings that never expired).

        With serve-stale off the same soak fails this invariant:
        every expired binding turns into upstream GLS timeouts and
        503s for the duration of the partition.
        """
        caches = list(caches)

        def check(window):
            row = self.stats.phase_summary(window)
            issued = row["issued"]
            if not issued:
                raise AssertionError("no requests issued during %r"
                                     % phase)
            rate = row["failed"] / issued
            if rate > max_error_rate:
                raise AssertionError(
                    "error rate %.1f%% during %r exceeds %.1f%% "
                    "(failed %d of %d)"
                    % (rate * 100, phase, max_error_rate * 100,
                       row["failed"], issued))
            if require_stale_hits:
                bound = [cache for cache in caches
                         if getattr(cache, "metrics_prefix", None)]
                stale = sum(
                    window.delta(cache.metrics_prefix + ".stale_served")
                    for cache in bound)
                if not stale:
                    raise AssertionError(
                        "no stale entries served during %r (%d "
                        "cache(s) inspected)" % (phase, len(bound)))
            return True

        self.invariant(name, check, phase=phase)

    def chunked_transfer_invariant(self, downloader,
                                   refetch_bound: float = 1.0,
                                   min_completed: Optional[int] = None
                                   ) -> None:
        """The resilient-transfer invariants (crash/partition soaks).

        Registers three named checks against a
        :class:`~repro.gdn.transfer.ChunkedDownloader`:

        * ``transfer-completes`` — every started transfer finished
          (or at least ``min_completed`` did, when given): the fault
          did not turn downloads into permanent failures;
        * ``no-duplicate-chunk-application`` — no chunk was applied
          to a reassembly twice, across crash/resume boundaries;
        * ``refetch-bounded`` — bytes re-fetched stayed at or below
          ``refetch_bound`` × bytes applied: resumption actually
          saved the work already done.

        A no-resume downloader under the same fault schedule fails
        these — restart-from-zero re-fetches every verified chunk
        until the retry budget runs dry.
        """
        def completes():
            wanted = (downloader.transfers_started
                      if min_completed is None else min_completed)
            done = downloader.transfers_completed
            if done < wanted:
                raise AssertionError(
                    "%d of %d transfers completed (%d failed, budget "
                    "exhausted %d time(s))"
                    % (done, wanted, downloader.transfers_failed,
                       downloader.budget_exhausted))
            return True

        def no_duplicates():
            if downloader.duplicate_applications:
                raise AssertionError(
                    "%d duplicate chunk application(s)"
                    % downloader.duplicate_applications)
            return True

        def refetch_bounded():
            ratio = downloader.refetch_ratio()
            if ratio > refetch_bound:
                raise AssertionError(
                    "re-fetched %.2fx the applied bytes (bound %.2fx: "
                    "%d refetched vs %d applied)"
                    % (ratio, refetch_bound, downloader.bytes_refetched,
                       downloader.bytes_applied))
            return True

        self.invariant("transfer-completes", completes)
        self.invariant("no-duplicate-chunk-application", no_duplicates)
        self.invariant("refetch-bounded", refetch_bounded)

    # -- the run ---------------------------------------------------------

    def _phase_marks(self) -> List[Tuple[float, str]]:
        marks = list(self._extra_marks)
        if self._fault_spans:
            marks.append((min(start for start, _ in self._fault_spans),
                          "during-fault"))
            marks.append((max(end for _, end in self._fault_spans),
                          "recovered"))
        return sorted(marks)

    def _phase_driver(self, marks: List[Tuple[float, str]]) -> Generator:
        registry = self.stats.registry
        for when, label in marks:
            if when > self.world.now:
                yield self.world.sim.timeout(when - self.world.now)
            registry.phase(label, now=self.world.now)

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
        if marks:
            self.world.sim.process(self._phase_driver(marks))
        driver = self.world.sim.process(
            self.scenario.drive(self.world.sim, self.request,
                                rng=self.rng, stats=self.stats))
        elapsed = self.world.run_until(driver, limit=limit)
        if self.settle > 0:
            self.world.run(until=self.world.now + self.settle)
        registry.end_phase(now=self.world.now)
        phases = registry.phases[phases_before:]
        failures: List[Tuple[str, str]] = []
        for name, check, phase in self.invariants:
            if phase is None:
                targets: List[Any] = [None]
            else:
                # Every window carrying the label is checked (repeated
                # mark_phase labels produce several); a violation in
                # any one of them fails the invariant.
                targets = [w for w in phases if w.label == phase]
                if not targets:
                    failures.append(
                        (name, "no phase window labelled %r (phases: %s)"
                         % (phase, [w.label for w in phases])))
                    continue
            for window in targets:
                try:
                    outcome = check() if window is None else check(window)
                except Exception as exc:  # noqa: BLE001 - reported
                    failures.append(
                        (name, "%s: %s" % (type(exc).__name__, exc)))
                    break
                if outcome is False:
                    failures.append((name, "returned False"))
                    break
        return SoakReport(self.stats, elapsed, list(self.injector.log),
                          failures, len(self.invariants), phases=phases)
