"""Tests for the arrival schedules and the open-loop driver behind
OpenLoopScenario and TraceScenario."""

import random

import pytest

from repro.sim.kernel import Simulator
from repro.sim.rpc import UdpRpcClient, UdpRpcServer
from repro.sim.topology import Topology
from repro.sim.world import World
from repro.workloads.loadgen import (Arrival, FlashCrowdSchedule, LoadStats,
                                     PoissonSchedule, UniformSchedule)
from repro.workloads.scenario import (OpenLoopScenario, RequestMix,
                                      TraceScenario)


def _drive(sim, scenario, request, rng=None, stats=None):
    """Drive ``scenario`` to completion; (stats, elapsed)."""
    stats = stats if stats is not None else LoadStats()
    elapsed = sim.run_until_complete(
        sim.process(scenario.drive(sim, request, rng=rng, stats=stats)),
        limit=1000)
    return stats, elapsed


def test_uniform_schedule_is_exact():
    times = list(UniformSchedule(10.0).times(5, 2.0, random.Random(1)))
    assert times == [2.0, 2.1, 2.2, 2.3, 2.4]


def test_poisson_schedule_deterministic_and_increasing():
    first = list(PoissonSchedule(50.0).times(200, 0.0, random.Random(7)))
    second = list(PoissonSchedule(50.0).times(200, 0.0, random.Random(7)))
    assert first == second
    assert all(b > a for a, b in zip(first, second[1:]))
    # Mean inter-arrival should be near 1/rate.
    mean_gap = first[-1] / len(first)
    assert 0.5 / 50.0 < mean_gap < 2.0 / 50.0


def test_flash_crowd_schedule_spikes():
    schedule = FlashCrowdSchedule(base_rate=1.0, peak_rate=100.0,
                                  spike_start=10.0, spike_duration=5.0)
    assert schedule.rate_at(0.0) == 1.0
    assert schedule.rate_at(10.0) == 100.0
    assert schedule.rate_at(14.999) == 100.0
    assert schedule.rate_at(15.0) == 1.0
    times = list(schedule.times(400, 0.0, random.Random(3)))
    in_spike = sum(1 for t in times if 10.0 <= t < 15.0)
    # The spike window carries the bulk of the arrivals.
    assert in_spike > len(times) / 2


def test_flash_crowd_never_skips_the_spike():
    # Regression: with a sparse base rate (mean gap far longer than
    # the time to the spike), naive exponential sampling leaps clean
    # over the spike window.  Piecewise sampling must redraw at the
    # rate boundary instead.
    schedule = FlashCrowdSchedule(base_rate=0.01, peak_rate=100.0,
                                  spike_start=10.0, spike_duration=10.0)
    for seed in range(20):
        times = list(schedule.times(300, 0.0, random.Random(seed)))
        in_spike = sum(1 for t in times if 10.0 <= t < 20.0)
        assert in_spike > 200, "seed %d: spike skipped" % seed


def test_loadgen_shared_stats_does_not_end_runs_early():
    # Regression: completion used to compare the *shared* stats
    # counter against this drive's count, so a reused LoadStats made a
    # later run return while requests were still in flight.  Trace
    # replay shares the driver, so it must wait for its own requests
    # too.
    sim = Simulator()
    stats = LoadStats()

    def request(arrival):
        yield sim.timeout(10.0)

    _drive(sim, OpenLoopScenario(UniformSchedule(100.0), 5), request,
           stats=stats)
    assert stats.finished == 5
    _, elapsed = _drive(sim, OpenLoopScenario(UniformSchedule(100.0), 5),
                        request, stats=stats)
    assert stats.finished == 10  # the second run waited for its own 5
    assert elapsed == pytest.approx(10.0 + 4 / 100.0)
    trace = TraceScenario([Arrival(i, i / 100.0, None, 0)
                           for i in range(5)])
    _, elapsed = _drive(sim, trace, request, stats=stats)
    assert stats.finished == 15
    assert elapsed == pytest.approx(10.0 + 4 / 100.0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        UniformSchedule(0.0)
    with pytest.raises(ValueError):
        PoissonSchedule(-1.0)
    with pytest.raises(ValueError):
        FlashCrowdSchedule(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        FlashCrowdSchedule(1.0, 2.0, 0.0, 0.0)
    # The open-loop driver's bound: at least one arrival.
    with pytest.raises(ValueError):
        OpenLoopScenario(UniformSchedule(1.0), 0)


def test_loadgen_open_loop_overlaps_requests():
    sim = Simulator()
    active = []
    peak = []

    def request(arrival):
        active.append(arrival.index)
        peak.append(len(active))
        yield sim.timeout(1.0)  # service takes longer than the gap
        active.remove(arrival.index)

    stats, elapsed = _drive(sim, OpenLoopScenario(UniformSchedule(10.0), 20),
                            request)
    # Open loop: arrivals kept coming while earlier ones were in
    # service, so concurrency well above 1 was reached.
    assert max(peak) > 5
    assert stats.ok == 20
    assert stats.failed == 0
    assert stats.latency.count == 20
    assert stats.latency.mean == pytest.approx(1.0)
    assert elapsed == pytest.approx(19 / 10.0 + 1.0)


def test_loadgen_accounts_failures_and_errors():
    sim = Simulator()

    def request(arrival):
        yield sim.timeout(0.01)
        if arrival.index % 3 == 1:
            return False  # application-level failure
        if arrival.index % 3 == 2:
            raise RuntimeError("boom")
        return True

    stats, _ = _drive(sim, OpenLoopScenario(UniformSchedule(100.0), 9),
                      request)
    assert stats.ok == 3
    assert stats.failed == 6
    assert stats.errors == {"RuntimeError": 3}
    assert stats.latency.count == 3
    summary = stats.summary()
    assert summary["issued"] == 9 and summary["ok"] == 3


def test_loadgen_places_sites_and_ranks():
    sim = Simulator()
    topology = Topology.balanced(2, 1, 1, 2)
    rng = random.Random(11)
    seen_sites = set()
    seen_ranks = set()
    seen_kinds = set()

    def request(arrival):
        seen_sites.add(arrival.site.path)
        seen_ranks.add(arrival.rank)
        seen_kinds.add(arrival.kind)
        yield sim.timeout(0.001)

    scenario = OpenLoopScenario(PoissonSchedule(100.0), 200,
                                sites=topology.sites,
                                mix=RequestMix(20, 1.0, write_fraction=0.2))
    stats, _ = _drive(sim, scenario, request, rng=rng)
    assert len(seen_sites) == 4  # all sites drawn
    assert 0 in seen_ranks and len(seen_ranks) > 3
    assert seen_kinds == {"read", "write"}
    assert stats.ok == 200


def test_loadgen_10k_requests_leave_no_stale_timers():
    # Acceptance: a 10^4-request open-loop run over UDP RPC must leave
    # the simulator heap with no stale (cancelled-but-present) timers —
    # guard timers are cancelled on success, and compaction keeps the
    # lazily invalidated entries from accumulating.
    world = World(topology=Topology.balanced(1, 1, 1, 2), seed=13)
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("node", "r0/c0/m0/s1")
    server = UdpRpcServer(b, 5300)
    server.register("echo", lambda ctx, args: args["x"])
    server.start()
    client = UdpRpcClient(a)

    def request(arrival):
        value = yield from client.call(b, 5300, "echo", {"x": arrival.index})
        return value == arrival.index

    stats = LoadStats()
    process = world.sim.process(OpenLoopScenario(
        PoissonSchedule(2000.0), 10_000).drive(
            world.sim, request, rng=world.rng_for("loadgen-10k"),
            stats=stats))
    world.run_until(process, limit=1e6)
    world.run()  # drain the driver's own completion event
    assert stats.ok == 10_000
    assert world.sim.stale_timer_count == 0
    assert world.sim.heap_size == 0
    # The heap never grew anywhere near one-entry-per-request.
    assert world.sim.peak_heap_size < 1000


class _Fixed(random.Random):
    """Every ``random()`` draw is 0.0 and every gap 0.5 s."""

    def random(self):
        return 0.0

    def expovariate(self, rate):
        return 0.5


def test_a_flash_crowd_redraws_each_gap_that_reaches_a_rate_change():
    # Gaps of 0.5 s; the spike runs from 1 to 2: the gaps ending on 1
    # and on 2 are redrawn from there, and none after 2 is.
    schedule = FlashCrowdSchedule(1.0, 10.0, spike_start=1.0,
                                  spike_duration=1.0)
    assert list(schedule.times(4, 0.0, _Fixed())) == [0.5, 1.5, 2.5, 3.0]
    FlashCrowdSchedule(1.0, 10.0, spike_start=0.0, spike_duration=1.0)
    with pytest.raises(ValueError):
        FlashCrowdSchedule(0.0, 10.0, spike_start=0.0, spike_duration=1.0)
    with pytest.raises(ValueError):
        PoissonSchedule(0.0)


def test_a_zero_write_fraction_draws_no_write_even_on_a_zero_draw():
    assert RequestMix(1).draw(_Fixed()) == (0, "read")
