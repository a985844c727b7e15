"""Tests for the unified scenario engine (trace replay, mixes,
closed-loop populations, hybrids, soak runs)."""

import random

import pytest

from repro.sim.kernel import Simulator
from repro.sim.rpc import UdpRpcServer, UdpRpcClient
from repro.sim.topology import Topology
from repro.sim.world import World
from repro.workloads.loadgen import (BurstSchedule, LoadStats,
                                     PoissonSchedule, UniformSchedule)
from repro.workloads.population import ClientPopulation
from repro.workloads.scenario import (ClosedLoopScenario, HybridScenario,
                                      OpenLoopScenario, RequestMix, Soak,
                                      TraceEvent, TraceScenario, load_trace,
                                      record_stream, save_trace)


def _drive(sim, scenario, request, seed=1, stats=None):
    stats = stats if stats is not None else LoadStats()
    elapsed = sim.run_until_complete(
        sim.process(scenario.drive(sim, request, rng=random.Random(seed),
                                   stats=stats)), 1e9)
    return stats, elapsed


# -- trace format -----------------------------------------------------------

@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
def test_trace_file_roundtrip(tmp_path, suffix):
    events = [TraceEvent(0.25 * i, "write" if i % 4 == 0 else "read",
                         i % 3, "r0/c0/m0/s%d" % (i % 2))
              for i in range(12)]
    path = tmp_path / ("trace%s" % suffix)
    save_trace(path, events)
    back = load_trace(path)
    assert [(e.time, e.kind, e.object_index, e.site_path) for e in back] \
        == [(e.time, e.kind, e.object_index, e.site_path) for e in events]


def test_trace_format_validation(tmp_path):
    with pytest.raises(ValueError):
        save_trace(tmp_path / "trace.xml", [])
    with pytest.raises(ValueError):
        load_trace(tmp_path / "trace.xml")
    with pytest.raises(ValueError):
        TraceScenario([])


def test_record_stream_adapts_population():
    topology = Topology.balanced(2, 1, 1, 2)
    population = ClientPopulation(topology, 5, random.Random(3),
                                  write_fraction=[0.5] * 5)
    stream = population.generate(40)
    events = record_stream(stream)
    assert len(events) == 40
    assert all(e.kind in ("read", "write") for e in events)
    assert any(e.kind == "write" for e in events)
    # Sites survive as Domains straight from the stream.
    assert events[0].site_path == stream.requests[0].site.path


# -- trace replay -----------------------------------------------------------

def test_trace_replay_determinism_from_file(tmp_path):
    """Same seed + same trace file => identical LoadStats."""
    topology = Topology.balanced(2, 2, 1, 2)
    population = ClientPopulation(topology, 8, random.Random(11),
                                  write_fraction=[0.2] * 8)
    path = tmp_path / "trace.jsonl"
    save_trace(path, record_stream(population.generate(60)))

    def one_run():
        sim = Simulator()
        rng = random.Random(99)

        def request(arrival):
            # Service time depends on the run's RNG and the arrival, so
            # any divergence in replay order or draws shows up in stats.
            yield sim.timeout(rng.uniform(0.01, 0.05) * (arrival.rank + 1))
            return arrival.kind == "read" or arrival.rank % 2 == 0

        scenario = TraceScenario.from_file(path, topology=topology)
        stats, elapsed = _drive(sim, scenario, request, seed=7)
        # Histogram state is the determinism fingerprint: same replay
        # order and draws <=> identical (count, sum, extremes, buckets).
        return (stats.issued, stats.ok, stats.failed,
                stats.latency.state(), elapsed)

    assert one_run() == one_run()


def test_trace_replay_respects_timestamps():
    sim = Simulator()
    events = [TraceEvent(1.0, "read", 0), TraceEvent(3.0, "read", 1)]
    issued_at = []

    def request(arrival):
        issued_at.append((arrival.rank, sim.now))
        yield sim.timeout(0.1)

    _drive(sim, TraceScenario(events), request)
    assert issued_at == [(0, 1.0), (1, 3.0)]


def test_trace_scenario_site_resolution():
    topology = Topology.balanced(1, 1, 1, 2)
    events = [TraceEvent(0.0, "read", 0, "r0/c0/m0/s1")]
    sim = Simulator()
    resolved = TraceScenario(events, topology=topology).arrivals(sim)
    assert resolved[0].site is topology.site("r0/c0/m0/s1")
    unresolved = TraceScenario(events).arrivals(sim)
    assert unresolved[0].site == "r0/c0/m0/s1"


def test_sequential_pacing_never_overlaps():
    sim = Simulator()
    events = [TraceEvent(0.0, "read", i) for i in range(5)]
    active = []
    peak = []

    def request(arrival):
        active.append(arrival.rank)
        peak.append(len(active))
        yield sim.timeout(1.0)
        active.remove(arrival.rank)

    stats, elapsed = _drive(
        sim, TraceScenario(events, pacing="sequential"), request)
    assert max(peak) == 1  # closed: one request at a time
    assert stats.ok == 5
    assert elapsed == pytest.approx(5.0)
    with pytest.raises(ValueError):
        TraceScenario(events, pacing="warp")


# -- request mixes ----------------------------------------------------------

def test_request_mix_draws_objects_and_kinds():
    mix = RequestMix(10, alpha=1.0,
                     write_fraction=[0.5] * 5 + [0.0] * 5)
    rng = random.Random(5)
    draws = [mix.draw(rng) for _ in range(2000)]
    ranks = [rank for rank, _ in draws]
    assert min(ranks) == 0 and max(ranks) < 10
    # Zipf head dominates.
    assert sum(1 for rank in ranks if rank < 3) > len(ranks) * 0.5
    # Writes only on objects that allow them.
    assert all(kind == "read" for rank, kind in draws if rank >= 5)
    writable = [kind for rank, kind in draws if rank < 5]
    assert 0.3 < sum(1 for k in writable if k == "write") / len(writable) \
        < 0.7


def test_request_mix_explicit_weights_and_validation():
    mix = RequestMix(3, weights=[0.0, 1.0, 0.0])
    rng = random.Random(1)
    assert {mix.draw(rng)[0] for _ in range(50)} == {1}
    assert mix.probability(1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        RequestMix(0)
    with pytest.raises(ValueError):
        RequestMix(3, weights=[1.0, 2.0])
    with pytest.raises(ValueError):
        RequestMix(2, weights=[0.0, 0.0])
    with pytest.raises(ValueError):
        RequestMix(2, write_fraction=[0.5])
    with pytest.raises(ValueError):
        RequestMix(2, write_fraction=1.5)


def test_open_loop_scenario_with_mix_sets_kinds():
    sim = Simulator()
    mix = RequestMix(4, alpha=0.0, write_fraction=0.5)
    seen = []

    def request(arrival):
        seen.append((arrival.rank, arrival.kind))
        yield sim.timeout(0.001)

    scenario = OpenLoopScenario(PoissonSchedule(200.0), 200, mix=mix)
    stats, _elapsed = _drive(sim, scenario, request)
    assert stats.ok == 200
    kinds = {kind for _rank, kind in seen}
    assert kinds == {"read", "write"}
    assert len({rank for rank, _ in seen}) == 4


# -- closed-loop populations -------------------------------------------------

def test_closed_loop_thinks_before_every_request():
    """No request may be issued before its think time has elapsed."""
    sim = Simulator()
    topology = Topology.balanced(1, 1, 1, 2)
    think = 0.5
    service = 0.2
    issues = {}  # site path -> issue times

    def request(arrival):
        issues.setdefault(arrival.site.path, []).append(sim.now)
        yield sim.timeout(service)

    scenario = ClosedLoopScenario(clients=2, think_time=think,
                                  requests_per_client=4,
                                  sites=topology.sites, think="fixed")
    stats, _elapsed = _drive(sim, scenario, request)
    assert stats.ok == 8
    assert len(issues) == 2  # each client at its own site
    for times in issues.values():
        assert times[0] >= think  # thought before the first request too
        for earlier, later in zip(times, times[1:]):
            # think time + the client's own completed request
            assert later - earlier >= think + service


def test_closed_loop_waits_for_own_request():
    sim = Simulator()
    active = []
    peak = []

    def request(arrival):
        active.append(arrival.index)
        peak.append(len(active))
        yield sim.timeout(1.0)
        active.remove(arrival.index)

    scenario = ClosedLoopScenario(clients=3, think_time=0.0,
                                  requests_per_client=4)
    stats, elapsed = _drive(sim, scenario, request)
    assert stats.ok == 12
    assert max(peak) <= 3  # concurrency bounded by the population
    assert elapsed == pytest.approx(4.0)  # 4 sequential rounds per client


def test_closed_loop_validation():
    with pytest.raises(ValueError):
        ClosedLoopScenario(0, 1.0, 1)
    with pytest.raises(ValueError):
        ClosedLoopScenario(1, -1.0, 1)
    with pytest.raises(ValueError):
        ClosedLoopScenario(1, 1.0, 0)
    with pytest.raises(ValueError):
        ClosedLoopScenario(1, 1.0, 1, think="gaussian")


def test_closed_loop_accounts_failures():
    sim = Simulator()

    def request(arrival):
        yield sim.timeout(0.01)
        if arrival.index % 3 == 1:
            return False
        if arrival.index % 3 == 2:
            raise RuntimeError("boom")
        return True

    scenario = ClosedLoopScenario(clients=1, think_time=0.0,
                                  requests_per_client=9)
    stats, _elapsed = _drive(sim, scenario, request)
    assert stats.ok == 3 and stats.failed == 6
    assert stats.errors == {"RuntimeError": 3}


# -- hybrids and schedules ---------------------------------------------------

def test_burst_schedule_is_simultaneous():
    times = list(BurstSchedule().times(5, 3.0, random.Random(1)))
    assert times == [3.0] * 5


def test_hybrid_runs_everything_into_shared_stats():
    sim = Simulator()
    by_label = {"open": 0, "closed": 0}

    def request(arrival):
        # Open-loop arrivals carry rank from the mix (all rank 1 via
        # weights); closed-loop ones are rank 0.
        by_label["open" if arrival.rank == 1 else "closed"] += 1
        yield sim.timeout(0.01)

    scenario = HybridScenario([
        OpenLoopScenario(UniformSchedule(100.0), 20,
                         mix=RequestMix(2, weights=[0.0, 1.0])),
        ClosedLoopScenario(clients=2, think_time=0.05,
                           requests_per_client=5),
    ])
    stats, _elapsed = _drive(sim, scenario, request)
    assert scenario.count == 30
    assert stats.ok == 30
    assert by_label == {"open": 20, "closed": 10}
    with pytest.raises(ValueError):
        HybridScenario([])


def test_scenario_determinism_same_seed():
    def one_run(seed):
        sim = Simulator()

        def request(arrival):
            yield sim.timeout(0.001 * (arrival.rank + 1))

        scenario = HybridScenario([
            OpenLoopScenario(PoissonSchedule(50.0), 30,
                             mix=RequestMix(5, write_fraction=0.2)),
            ClosedLoopScenario(clients=3, think_time=0.1,
                               requests_per_client=5,
                               mix=RequestMix(5)),
        ])
        stats, elapsed = _drive(sim, scenario, request, seed=seed)
        return stats.latency.state(), elapsed

    assert one_run(4) == one_run(4)
    assert one_run(4) != one_run(5)


# -- soak runs ---------------------------------------------------------------

def _echo_world():
    world = World(topology=Topology.balanced(1, 1, 1, 2), seed=21)
    client_host = world.host("client", "r0/c0/m0/s0")
    server_host = world.host("server", "r0/c0/m0/s1")
    server = UdpRpcServer(server_host, 5300)
    server.register("echo", lambda ctx, args: args["x"])
    server.start()
    return world, client_host, server_host, server


def test_soak_injects_faults_and_checks_invariants():
    world, client_host, server_host, server = _echo_world()
    client = UdpRpcClient(client_host)

    def request(arrival):
        value = yield from client.call(server_host, 5300, "echo",
                                       {"x": arrival.index})
        return value == arrival.index

    stats = LoadStats()
    scenario = OpenLoopScenario(UniformSchedule(10.0), 60)
    soak = Soak(world, scenario, request, stats=stats, settle=1.0)
    base = world.now
    # The outage outlasts the client's whole retry budget (4 attempts
    # x 0.5s), so early-outage calls genuinely fail while late ones
    # are saved by a retry landing after the restart.
    soak.crash_restart(server_host, crash_at=base + 2.0,
                       restart_at=base + 4.5, recover=server.start)
    soak.invariant("all accounted",
                   lambda: stats.finished == 60)
    soak.invariant("some failed during the outage",
                   lambda: stats.failed > 0)
    soak.invariant("mostly fine", lambda: stats.ok >= 40)
    report = soak.run()
    assert report.ok, report.failures
    assert [(kind, target) for _w, kind, target in report.fault_log] \
        == [("crash", "server"), ("restart", "server")]
    assert report.invariants_checked == 3
    summary = report.summary()
    assert summary["violations"] == 0 and summary["faults"] == 2


def test_soak_reports_violated_invariants():
    world, client_host, server_host, _server = _echo_world()
    client = UdpRpcClient(client_host)

    def request(arrival):
        yield from client.call(server_host, 5300, "echo", {"x": 1})
        return True

    soak = Soak(world, OpenLoopScenario(UniformSchedule(50.0), 10),
                request, settle=0.0)
    soak.invariant("passes", lambda: True)
    soak.invariant("returns false", lambda: False)

    def raises():
        raise AssertionError("broken state")

    soak.invariant("raises", raises)
    report = soak.run()
    assert not report.ok
    assert [name for name, _why in report.failures] \
        == ["returns false", "raises"]
    assert "broken state" in dict(report.failures)["raises"]


# -- duration-bound scenarios ------------------------------------------------

def test_open_loop_duration_stops_on_simulated_time():
    sim = Simulator()
    issued_times = []

    def request(arrival):
        issued_times.append(arrival.time)
        yield sim.timeout(0.01)

    scenario = OpenLoopScenario(UniformSchedule(100.0), duration=0.5)
    assert scenario.count is None  # the total is an outcome, not an input
    stats, elapsed = _drive(sim, scenario, request)
    # Uniform arrivals every 10ms: 0.0 .. 0.5 inclusive.
    assert stats.issued == 51
    assert stats.ok == 51
    assert max(issued_times) <= 0.5
    assert elapsed == pytest.approx(0.51)


def test_open_loop_duration_with_poisson_is_deterministic():
    def one_run():
        sim = Simulator()

        def request(arrival):
            yield sim.timeout(0.005)

        scenario = OpenLoopScenario(PoissonSchedule(50.0), duration=2.0)
        stats, elapsed = _drive(sim, scenario, request, seed=11)
        return stats.issued, stats.latency.state(), elapsed

    first = one_run()
    assert first == one_run()
    assert 50 < first[0] < 150  # ~100 expected at rate 50 for 2s


def test_closed_loop_duration_stops_on_simulated_time():
    sim = Simulator()
    think, service = 0.1, 0.15

    def request(arrival):
        yield sim.timeout(service)

    scenario = ClosedLoopScenario(clients=2, think_time=think,
                                  duration=1.0, think="fixed")
    assert scenario.count is None
    stats, _elapsed = _drive(sim, scenario, request)
    # Each client cycles think+service = 0.25s; issues at 0.1, 0.35,
    # 0.6, 0.85, then the 1.1 think lands past the deadline.
    assert stats.issued == 8
    assert stats.ok == 8


def test_closed_loop_duration_ends_within_one_request_of_the_deadline():
    """Regression: a thinker whose wake fell past the deadline used to
    sleep it out before noticing, so with think times much longer than
    the drive, ``drive()`` returned when the last sleeper woke (~76 s
    into E10's 10 s drives) and throughput was divided by that."""
    sim = Simulator()
    service = 0.5

    def request(arrival):
        yield sim.timeout(service)
        return True

    scenario = ClosedLoopScenario(clients=200, think_time=1000.0,
                                  duration=10.0)
    stats, elapsed = _drive(sim, scenario, request, seed=3)
    assert stats.issued > 0 and stats.ok == stats.issued
    assert 10.0 <= elapsed <= 10.0 + service
    assert stats.in_flight == 0 and sim.heap_size == 0


def test_duration_validation():
    with pytest.raises(ValueError):
        OpenLoopScenario(UniformSchedule(1.0))  # neither bound
    with pytest.raises(ValueError):
        OpenLoopScenario(UniformSchedule(1.0), 5, duration=1.0)  # both
    with pytest.raises(ValueError):
        OpenLoopScenario(UniformSchedule(1.0), duration=-1.0)
    with pytest.raises(ValueError):
        ClosedLoopScenario(1, 0.1)  # neither bound
    with pytest.raises(ValueError):
        ClosedLoopScenario(1, 0.1, 5, duration=1.0)  # both


def test_burst_schedule_refuses_open_ended_runs():
    sim = Simulator()

    def request(arrival):
        yield sim.timeout(0.01)

    scenario = OpenLoopScenario(BurstSchedule(), duration=1.0)
    with pytest.raises(ValueError):
        sim.run_until_complete(
            sim.process(scenario.drive(sim, request)), 1e9)


# -- zero-request / zero-time soaks report cleanly ---------------------------

def test_empty_load_stats_reports_zeros_not_errors():
    stats = LoadStats()
    assert stats.throughput(0.0) == 0.0
    assert stats.throughput(-1.0) == 0.0
    assert stats.throughput(10.0) == 0.0
    summary = stats.summary()
    assert summary["issued"] == 0 and summary["ok"] == 0
    assert summary["mean"] == 0.0 and summary["p95"] == 0.0
    assert stats.latency.mean == 0.0  # no ValueError on empty latency


def test_soak_with_zero_completed_requests_yields_clean_report():
    world, client_host, server_host, _server = _echo_world()

    def request(arrival):
        yield from ()  # never reached: no arrivals fit the window

    # At 0.001 req/s the first Poisson arrival is ~1000s out — far
    # beyond the 0.1s duration — so the soak issues nothing.
    scenario = OpenLoopScenario(PoissonSchedule(0.001), duration=0.1)
    soak = Soak(world, scenario, request, settle=0.5)
    report = soak.run()
    assert report.ok
    summary = report.summary()
    assert summary["issued"] == 0 and summary["ok"] == 0
    assert summary["throughput"] == 0.0
    assert summary["p95"] == 0.0
    # The phase table renders (all-zero row, no division errors).
    assert "steady" in report.phase_table()


# -- phase windows around injected faults ------------------------------------

def test_soak_phase_windows_capture_fault_degradation():
    """p95 latency during the injected partition must exceed the
    recovered window's, and the phase deltas must sum to run totals."""
    from repro.sim.rpc import RpcError

    world = World(topology=Topology.balanced(1, 2, 1, 2), seed=21)
    client_host = world.host("client", "r0/c0/m0/s0")
    # The preferred replica lives in the country that gets partitioned;
    # the fallback is local to the client.
    replica_host = world.host("replica", "r0/c1/m0/s0")
    fallback_host = world.host("fallback", "r0/c0/m0/s1")
    for server_host in (replica_host, fallback_host):
        server = UdpRpcServer(server_host, 5300)
        server.register("echo", lambda ctx, args: args["x"])
        server.start()
    client = UdpRpcClient(client_host, timeout=0.25, retries=3)

    def request(arrival):
        # Nearest-replica-first with fallback: during the partition
        # every request burns the replica's retry budget (1.0s) before
        # completing on the fallback — the latency degradation the
        # per-phase windows must expose.
        try:
            value = yield from client.call(replica_host, 5300, "echo",
                                           {"x": arrival.index})
        except RpcError:
            value = yield from client.call(fallback_host, 5300, "echo",
                                           {"x": arrival.index})
        return value == arrival.index

    stats = LoadStats(registry=world.metrics)
    scenario = OpenLoopScenario(UniformSchedule(20.0), 480)
    soak = Soak(world, scenario, request, stats=stats, settle=1.0)
    base = world.now
    soak.partition(world.topology.domain("r0/c1"), start=base + 2.0,
                   duration=2.0)
    report = soak.run()

    assert [w.label for w in report.phases] \
        == ["pre-fault", "during-fault", "recovered"]
    rows = {row["phase"]: row for row in report.phase_rows()}
    during, recovered = rows["during-fault"], rows["recovered"]
    pre = rows["pre-fault"]
    assert during["ok"] > 0 and recovered["ok"] > 0
    # Fault-window completions paid the retry budget before failing
    # over; after the heal, latency is back at the millisecond floor.
    assert during["p95"] > 0.9
    assert during["p95"] > 10 * recovered["p95"]
    assert during["p95"] > 10 * pre["p95"]
    # The replica path actually timed out during the fault.
    assert client.retries_sent > 0 and client.timeouts_hit > 0
    # Tiling: phase deltas sum exactly to the run totals.
    assert sum(row["issued"] for row in rows.values()) == stats.issued
    assert sum(row["ok"] for row in rows.values()) == stats.ok
    assert sum(row["failed"] for row in rows.values()) == stats.failed
    latency_counts = [report.phases[i].delta(stats.latency.name).count
                      for i in range(3)]
    assert sum(latency_counts) == stats.latency.count
    # Network counters share the same windows: the fault window saw
    # dropped messages, the pre-fault window none.
    assert report.phases[1].delta("net.dropped") > 0
    assert report.phases[0].delta("net.dropped") == 0


def test_soak_loss_window_is_a_fault_phase_that_restores_prior_loss():
    world, client_host, server_host, _server = _echo_world()
    client = UdpRpcClient(client_host, timeout=0.25, retries=1)
    level = Topology.separation(client_host.site, server_host.site)
    prior = world.network.params.loss[level]

    def request(arrival):
        value = yield from client.call(server_host, 5300, "echo",
                                       {"x": arrival.index})
        return value == arrival.index

    soak = Soak(world, OpenLoopScenario(UniformSchedule(20.0), 80),
                request, settle=1.0)
    base = world.now
    soak.loss_window(level, 1.0, base + 1.0, base + 2.0)
    report = soak.run()
    assert [w.label for w in report.phases] \
        == ["pre-fault", "during-fault", "recovered"]
    assert report.phases[1].started_at == base + 1.0
    assert report.phases[2].started_at == base + 2.0
    assert [kind for _t, kind, _target in report.fault_log] \
        == ["loss=1", "loss=%g" % prior]
    assert world.network.params.loss[level] == prior
    rows = {row["phase"]: row for row in report.phase_rows()}
    assert rows["pre-fault"]["failed"] == 0
    assert rows["during-fault"]["failed"] > 0


# -- the committed trace corpus ----------------------------------------------

def test_bundled_trace_replay_is_deterministic():
    """Same seed + the committed trace file => identical stats."""
    from repro.workloads.scenario import bundled_trace

    path = bundled_trace("mixed_small.jsonl")
    events = load_trace(path)
    assert len(events) == 80
    assert {e.kind for e in events} == {"read", "write"}

    topology = Topology.balanced(2, 2, 1, 2)

    def one_run():
        sim = Simulator()
        rng = random.Random(5)

        def request(arrival):
            yield sim.timeout(rng.uniform(0.001, 0.01) * (arrival.rank + 1))
            return arrival.kind == "read" or arrival.rank % 2 == 0

        scenario = TraceScenario.from_file(path, topology=topology)
        stats, elapsed = _drive(sim, scenario, request, seed=3)
        return (stats.issued, stats.ok, stats.failed,
                stats.latency.state(), elapsed)

    first = one_run()
    assert first == one_run()
    assert first[0] == 80


def test_bundled_trace_file_not_found():
    from repro.workloads.scenario import bundled_trace
    with pytest.raises(FileNotFoundError):
        bundled_trace("no_such_trace.jsonl")


def test_closed_loop_duration_zero_progress_raises_not_hangs():
    """Zero think time + zero-time requests can never reach a duration
    deadline; the client must surface the livelock as an error."""
    sim = Simulator()

    def instant(arrival):
        return True
        yield  # pragma: no cover - marks this as a generator

    scenario = ClosedLoopScenario(clients=1, think_time=0.0, duration=1.0)
    with pytest.raises(ValueError, match="no simulated-time progress"):
        sim.run_until_complete(
            sim.process(scenario.drive(sim, instant)), 1e9)


def test_soak_phases_exclude_foreign_open_windows():
    """A phase window left open on the shared registry before the soak
    (an experiment's setup window) must not leak into report.phases."""
    world, client_host, server_host, _server = _echo_world()
    client = UdpRpcClient(client_host)
    world.metrics.phase("experiment-setup", now=world.now)

    def request(arrival):
        value = yield from client.call(server_host, 5300, "echo", {"x": 1})
        return value == 1

    soak = Soak(world, OpenLoopScenario(UniformSchedule(50.0), 10),
                request, settle=0.0)
    report = soak.run()
    assert [w.label for w in report.phases] == ["steady"]
    # The foreign window was closed and kept, just not attributed.
    assert [w.label for w in world.metrics.phases] \
        == ["experiment-setup", "steady"]
    rows = report.phase_rows()
    assert sum(row["issued"] for row in rows) == 10


# -- phases= on plain scenarios ----------------------------------------------

def test_open_loop_phases_mark_named_windows():
    """A plain open-loop scenario slices itself into named phase
    windows — no Soak wrapper — and the deltas tile the run."""
    sim = Simulator()

    def request(arrival):
        yield sim.timeout(0.005)

    stats = LoadStats()
    scenario = OpenLoopScenario(UniformSchedule(100.0), 100,
                                phases=[(0.0, "warmup"), (0.5, "steady")])
    stats2, _elapsed = _drive(sim, scenario, request, stats=stats)
    labels = [window.label for window in stats.registry.phases]
    assert labels == ["warmup", "steady"]
    rows = [stats.phase_summary(window)
            for window in stats.registry.phases]
    # Uniform arrivals every 10ms: 50 land in [0, 0.5), the rest after.
    assert rows[0]["issued"] == 50
    assert rows[1]["issued"] == 50
    assert sum(row["issued"] for row in rows) == stats.issued == 100
    assert sum(row["ok"] for row in rows) == stats.ok == 100
    # Windows carry timestamps, so per-phase throughput is computable.
    assert rows[0]["duration"] == pytest.approx(0.5)
    assert rows[0]["throughput"] > 0


def test_closed_loop_phases_and_marks_past_the_end():
    """phases= works on closed-loop scenarios too; a mark beyond the
    end of the run is dropped rather than left dangling."""
    sim = Simulator()

    def request(arrival):
        yield sim.timeout(0.01)

    stats = LoadStats()
    scenario = ClosedLoopScenario(clients=2, think_time=0.05,
                                  requests_per_client=5,
                                  phases=[(0.0, "all"), (1e6, "never")])
    _drive(sim, scenario, request, stats=stats)
    labels = [window.label for window in stats.registry.phases]
    assert labels == ["all"]
    window = stats.registry.phases[0]
    assert stats.phase_summary(window)["issued"] == 10
    # The dangling mark's sleeper was reaped (its t=1e6 timer was
    # cancelled with it): draining leaves nothing scheduled.
    sim.run()
    assert sim.peek() == float("inf")
    assert sim.now < 1e6


def test_phases_validation_and_ordering():
    with pytest.raises(ValueError, match="negative"):
        OpenLoopScenario(UniformSchedule(10.0), 5,
                         phases=[(-1.0, "bad")])
    scenario = OpenLoopScenario(UniformSchedule(10.0), 5,
                                phases=[(0.4, "late"), (0.0, "early")])
    assert scenario.phases == [(0.0, "early"), (0.4, "late")]
    assert OpenLoopScenario(UniformSchedule(10.0), 5).phases is None


def test_scenario_phases_close_foreign_open_window():
    """A phase left open on a shared registry before the drive must be
    closed first, so the scenario's own windows tile cleanly."""
    sim = Simulator()

    def request(arrival):
        yield sim.timeout(0.001)

    stats = LoadStats()
    stats.registry.phase("someone-elses-setup")
    scenario = OpenLoopScenario(UniformSchedule(100.0), 10,
                                phases=[(0.0, "mine")])
    _drive(sim, scenario, request, stats=stats)
    assert [w.label for w in stats.registry.phases] \
        == ["someone-elses-setup", "mine"]


# -- window-scoped soak invariants -------------------------------------------

def _partitioned_fallback_soak():
    """The replica-fallback soak from the phase-window test, reusable
    for window-scoped invariant checks."""
    from repro.sim.rpc import RpcError

    world = World(topology=Topology.balanced(1, 2, 1, 2), seed=21)
    client_host = world.host("client", "r0/c0/m0/s0")
    replica_host = world.host("replica", "r0/c1/m0/s0")
    fallback_host = world.host("fallback", "r0/c0/m0/s1")
    for server_host in (replica_host, fallback_host):
        server = UdpRpcServer(server_host, 5300)
        server.register("echo", lambda ctx, args: args["x"])
        server.start()
    client = UdpRpcClient(client_host, timeout=0.25, retries=3)

    def request(arrival):
        try:
            value = yield from client.call(replica_host, 5300, "echo",
                                           {"x": arrival.index})
        except RpcError:
            value = yield from client.call(fallback_host, 5300, "echo",
                                           {"x": arrival.index})
        return value == arrival.index

    stats = LoadStats(registry=world.metrics)
    soak = Soak(world, OpenLoopScenario(UniformSchedule(20.0), 160),
                request, stats=stats, settle=1.0)
    soak.partition(world.topology.domain("r0/c1"), start=world.now + 2.0,
                   duration=2.0)
    return soak, stats


def test_window_scoped_invariants_on_partition_soak():
    """Invariants bound to a named phase receive that phase's closed
    window and judge in-window deltas, not run totals."""
    soak, stats = _partitioned_fallback_soak()

    def error_rate_below(limit):
        def check(window):
            row = stats.phase_summary(window)
            finished = row["ok"] + row["failed"]
            return finished > 0 and row["failed"] / finished <= limit
        return check

    # Every request eventually fails over, so the during-fault error
    # *rate* stays at zero even though latency degrades badly.
    soak.invariant("error rate during fault <= 10%",
                   error_rate_below(0.10), phase="during-fault")
    soak.invariant("fault window saw drops",
                   lambda window: window.delta("net.dropped") > 0,
                   phase="during-fault")
    # p50, not p95: stragglers issued just before the heal complete
    # their 1s failover *inside* the recovered window, so its far tail
    # legitimately carries fault-era latencies.
    soak.invariant("recovered window is clean",
                   lambda window: window.delta("net.dropped") == 0
                   and stats.phase_summary(window)["p50"] < 0.1,
                   phase="recovered")
    report = soak.run()
    assert report.ok, report.failures
    assert report.invariants_checked == 3


def test_window_scoped_invariant_failures_are_reported():
    soak, stats = _partitioned_fallback_soak()
    soak.invariant("p95 during fault stays tiny",       # it will not
                   lambda window:
                   stats.phase_summary(window)["p95"] < 0.001,
                   phase="during-fault")
    soak.invariant("no such phase", lambda window: True,
                   phase="meltdown")
    report = soak.run()
    assert not report.ok
    failed = dict(report.failures)
    assert failed["p95 during fault stays tiny"] == "returned False"
    assert "no phase window labelled 'meltdown'" \
        in failed["no such phase"]


def test_flash_crowd_trace_shape_and_replay_determinism():
    """The committed flash-crowd trace has the documented spike shape,
    and a seeded replay produces byte-identical LoadStats summaries
    run over run (the determinism fingerprint of the fast-path
    kernel: replay order must not depend on anything but the trace
    and the seed)."""
    from repro.workloads.scenario import bundled_trace

    path = bundled_trace("flash_crowd_small.jsonl")
    events = load_trace(path)
    assert len(events) == 140
    in_spike = [e for e in events if 5.0 <= e.time < 7.0]
    outside = [e for e in events if not 5.0 <= e.time < 7.0]
    # The spike carries most of the trace at ~15x the base rate, and
    # is dominated by the announced object (rank 0).
    assert len(in_spike) > 2 * len(outside)
    spike_hot = sum(1 for e in in_spike if e.object_index == 0)
    assert spike_hot >= 0.7 * len(in_spike)
    assert {e.kind for e in events} == {"read", "write"}

    topology = Topology.balanced(2, 2, 1, 2)

    def one_run():
        sim = Simulator()
        rng = random.Random(13)

        def request(arrival):
            yield sim.timeout(rng.uniform(0.001, 0.02)
                              * (arrival.rank + 1))
            return arrival.kind == "read" or arrival.rank % 2 == 0

        scenario = TraceScenario.from_file(path, topology=topology)
        stats, elapsed = _drive(sim, scenario, request, seed=11)
        # The full summary dict plus the histogram's canonical state:
        # byte-identical across runs, not merely "close".
        return (stats.summary(), stats.latency.state(), elapsed,
                sim.events_processed)

    first = one_run()
    assert first == one_run()
    assert first[0]["issued"] == 140


def test_window_invariants_check_every_matching_window():
    """Repeated phase labels (two mark_phase calls with one name)
    produce several windows; a window-scoped invariant must be judged
    against all of them, not silently only the last."""
    world, client_host, server_host, _server = _echo_world()
    client = UdpRpcClient(client_host)

    def request(arrival):
        value = yield from client.call(server_host, 5300, "echo",
                                       {"x": arrival.index})
        return value == arrival.index

    soak = Soak(world, OpenLoopScenario(UniformSchedule(10.0), 40),
                request, settle=0.0)
    base = world.now
    soak.mark_phase(base + 1.0, "burst")
    soak.mark_phase(base + 2.0, "burst")
    seen_starts = []
    soak.invariant("sees every burst window",
                   lambda window: seen_starts.append(window.started_at)
                   or True, phase="burst")
    soak.invariant("fails on the first burst window",
                   lambda window: window.started_at != base + 1.0,
                   phase="burst")
    report = soak.run()
    assert seen_starts == [base + 1.0, base + 2.0]
    failed = dict(report.failures)
    assert "fails on the first burst window" in failed
    assert "sees every burst window" not in failed


def test_deadline_pool_trace_replay_matches_per_call_timers():
    """The ISSUE 5 determinism pin: replaying the committed flash-crowd
    trace through *guarded* UDP calls (loss, retries, expiring guard
    timers) yields byte-identical LoadStats on the pooled deadline
    subsystem and on dedicated per-call timers — the latter's run
    recorded below, from before that reference path was retired."""
    from repro.sim.topology import Level
    from repro.sim.rpc import RpcTimeout
    from repro.workloads.scenario import bundled_trace

    path = bundled_trace("flash_crowd_small.jsonl")
    world = World(topology=Topology.balanced(2, 2, 1, 2), seed=17)
    # Heavy wide-area loss: guards expire, retries fire, calls exhaust
    # the budget — every deadline path gets exercised.
    world.network.params.loss[Level.WORLD] = 0.5
    client_host = world.host("client", "r0/c0/m0/s0")
    server_host = world.host("gls", "r1/c0/m0/s0")
    server = UdpRpcServer(server_host, 5300)
    server.register("lookup", lambda ctx, args: args["rank"])
    server.start()
    client = UdpRpcClient(client_host, timeout=0.25, retries=2)

    def request(arrival):
        try:
            value = yield from client.call(server_host, 5300, "lookup",
                                           {"rank": arrival.rank})
        except RpcTimeout:
            return False
        return value == arrival.rank

    scenario = TraceScenario.from_file(path, topology=world.topology)
    stats, elapsed = _drive(world.sim, scenario, request, seed=29)
    pooled = (stats.summary(), stats.latency.state(), elapsed,
              client.retries_sent, client.timeouts_hit, world.now)
    per_call_timers = (
        {"issued": 140, "ok": 0, "failed": 140,
         "mean": 0.0, "p50": 0.0, "p95": 0.0},
        (0, 0.0, float("inf"), float("-inf"), 0, ()),
        10.182878, 280, 140, 10.182878)
    assert pooled == per_call_timers


def test_loadgen_10k_guarded_calls_drain_pools_and_heap():
    """A 10^4-request open-loop run of guarded UDP calls leaves zero
    stale timers, an empty kernel heap and fully drained deadline
    pools — nothing accumulates per call."""
    from repro.sim.deadlines import shared_pool

    world = World(topology=Topology.balanced(1, 1, 1, 2), seed=9)
    client_host = world.host("client", "r0/c0/m0/s0")
    server_host = world.host("node", "r0/c0/m0/s1")
    server = UdpRpcServer(server_host, 5300)
    server.register("echo", lambda ctx, args: args["x"])
    server.start()
    client = UdpRpcClient(client_host)

    def request(arrival):
        value = yield from client.call(server_host, 5300, "echo",
                                       {"x": arrival.index})
        return value == arrival.index

    scenario = OpenLoopScenario(UniformSchedule(2000.0), 10_000)
    stats, _elapsed = _drive(world.sim, scenario, request, seed=5)
    assert stats.ok == 10_000
    pool = client.deadline_pool
    assert pool.armed_total == 10_000
    assert pool.live == 0
    # Far fewer kernel arms than guarded calls — the pooling win.
    assert pool.timer_arms < 100
    world.run()  # let the last armed timer fire and sweep
    assert len(pool) == 0
    assert len(shared_pool(world.sim)) == 0
    assert world.sim.stale_timer_count == 0
    assert world.sim.heap_size == 0
