"""Tests for aggregated client cohorts (CohortScenario et al.).

The load-bearing claims, in order: (1) the cohorts' throughput
matches the closed-form expectation and honours quota/duration bounds;
(2) the kernel's cost follows activity, not population; (3) the diurnal
profile actually modulates the issue rate.
"""

import random

import pytest

from repro.sim.topology import Topology
from repro.sim.world import World
from repro.workloads.cohort import (AggregatedPopulation, CohortScenario,
                                    DiurnalProfile)
from repro.workloads.loadgen import LoadStats
from repro.workloads.scenario import RequestMix


def drive(scenario, *, seed=7, rng_seed=1234, limit=1e9):
    """Run one scenario in a fresh world; return a comparison
    fingerprint (stats summary, histogram state, elapsed)."""
    world = World(topology=Topology.balanced(2, 2, 2, 2), seed=seed)
    sim = world.sim

    def do_one(arrival):
        yield sim.timeout(0.01 + 0.001 * (arrival.rank % 5))
        return True

    stats = LoadStats()
    elapsed = world.run_until(
        sim.process(scenario.drive(sim, do_one,
                                   rng=random.Random(rng_seed),
                                   stats=stats)),
        limit=limit)
    return (stats.summary(), stats.latency.state(), elapsed), stats, world


# -- the cohort engine --------------------------------------------------------


def test_statistical_quota_is_exact():
    scenario = CohortScenario(500, 0.05, requests_per_client=2,
                              cohort_size=64)
    fingerprint, stats, _world = drive(scenario)
    assert stats.issued == 1000
    assert stats.ok == 1000


def test_statistical_throughput_matches_expectation():
    # 2000 clients, mean think 10s, duration 50s ⇒ ~10k issues; the
    # request itself is fast (~10ms) so thinkers dominate.
    scenario = CohortScenario(2000, 10.0, duration=50.0, cohort_size=256)
    _fingerprint, stats, _world = drive(scenario)
    expected = 2000 * 50.0 / 10.0
    assert stats.issued == pytest.approx(expected, rel=0.1)
    assert stats.in_flight == 0


def test_statistical_duration_stops_issuing_at_deadline():
    scenario = CohortScenario(300, 1.0, duration=10.0, cohort_size=50)
    fingerprint, stats, world = drive(scenario)
    # Everything drained, and the drive did not run far past the
    # deadline (only in-flight requests at the deadline may finish).
    assert stats.in_flight == 0
    assert fingerprint[2] >= 10.0
    assert fingerprint[2] < 11.0


def test_statistical_zero_think_quota():
    scenario = CohortScenario(20, 0.0, requests_per_client=10,
                              cohort_size=8)
    _fingerprint, stats, _world = drive(scenario)
    assert stats.issued == 200
    assert stats.ok == 200


def test_statistical_fixed_think_issues_in_lockstep_bursts():
    issue_times = []
    world = World(topology=Topology.balanced(1, 1, 1, 1), seed=2)
    sim = world.sim

    def do_one(arrival):
        issue_times.append(sim.now)
        yield sim.timeout(0.001)
        return True

    stats = LoadStats()
    cohort = AggregatedPopulation(
        sim, do_one, random.Random(4), None, clients=50, think_time=5.0,
        stats=stats, think="fixed", requests_per_client=2)
    world.run_until(sim.process(cohort.run()), limit=1e9)
    assert stats.issued == 100
    # First wave: all 50 clients wake at exactly t=5.0.
    assert issue_times[:50] == [5.0] * 50
    # Second wave: 5s after the first completions.
    assert issue_times[50:] == [pytest.approx(10.001)] * 50


def test_statistical_many_cohorts_share_one_arrival_counter():
    scenario = CohortScenario(100, 0.01, requests_per_client=1,
                              cohort_size=10)
    world = World(topology=Topology.balanced(2, 2, 2, 2), seed=1)
    sim = world.sim
    indices = []

    def do_one(arrival):
        indices.append(arrival.index)
        yield sim.timeout(0.001)
        return True

    stats = LoadStats()
    world.run_until(sim.process(
        scenario.drive(sim, do_one, rng=random.Random(0), stats=stats)),
        limit=1e9)
    assert sorted(indices) == list(range(100))


def test_statistical_sites_round_robin_headcount():
    world = World(topology=Topology.balanced(2, 1, 1, 2), seed=1)
    sim = world.sim
    sites = world.topology.sites  # 4 sites
    seen = {}

    def do_one(arrival):
        seen[arrival.site.path] = seen.get(arrival.site.path, 0) + 1
        yield sim.timeout(0.001)
        return True

    scenario = CohortScenario(10, 0.0, requests_per_client=1,
                              sites=sites, cohort_size=2)
    stats = LoadStats()
    world.run_until(sim.process(
        scenario.drive(sim, do_one, rng=random.Random(0), stats=stats)),
        limit=1e9)
    # 10 clients round-robin over 4 sites: 3, 3, 2, 2 — one request
    # each.
    assert sorted(seen.values(), reverse=True) == [3, 3, 2, 2]
    assert stats.issued == 10


def _burst_download_run(population, duration=120.0, requests=5_000,
                        fragments=8):
    """A diurnal cohort population of ``population`` users issuing about
    ``requests`` fragment downloads in ``duration`` (think time grows
    with population), each answered by one origin with one burst.
    Returns kernel events and timers per request, and the peak heap."""
    world = World(topology=Topology.balanced(4, 4, 4, 4), seed=42)
    sim = world.sim
    sites = world.topology.sites
    server_sock = world.host("origin", sites[0]).udp_socket(80)

    def serve():
        while True:
            datagram = yield server_sock.recv()
            reply_port, count = datagram.payload
            server_sock.send_burst(datagram.src_host, reply_port,
                                   [(("frag", index), 4096)
                                    for index in range(count)])

    server_sock.host.spawn(serve())
    hosts = {site.path: world.host("client@" + site.path, site)
             for site in sites[1:]}

    def download(arrival):
        sock = hosts[arrival.site.path].udp_socket()
        sock.send_to(server_sock.host, 80, (sock.port, fragments), size=64)
        for _ in range(fragments):
            yield sock.recv()
        sock.close()
        return True

    profile = DiurnalProfile.sinusoidal(slots=24, floor=0.2,
                                        period=duration)
    think = population * profile.mean_multiplier() * duration / requests
    scenario = CohortScenario(population, think, duration=duration,
                              sites=sites[1:], cohort_size=8192,
                              mix=RequestMix(1024, alpha=1.0,
                                             write_fraction=0.0),
                              profile=profile)
    stats = LoadStats()
    world.run_until(sim.process(scenario.drive(
        sim, download, rng=random.Random(7), stats=stats)), limit=1e12)
    assert stats.in_flight == 0
    assert stats.issued == pytest.approx(requests, rel=0.05)
    return (sim.events_processed / stats.issued,
            sim.timers_scheduled / stats.issued, sim.peak_heap_size)


def test_kernel_cost_follows_activity_not_population():
    # A thousand times the users at the same activity: the kernel does
    # the same work per request and holds the same number of timers.
    small_events, small_timers, small_heap = _burst_download_run(1_000)
    large_events, large_timers, large_heap = _burst_download_run(1_000_000)
    assert large_events == pytest.approx(small_events, rel=0.01)
    assert large_timers == pytest.approx(small_timers, rel=0.01)
    assert large_heap == pytest.approx(small_heap, rel=0.05)


# -- diurnal profile ----------------------------------------------------------


def test_profile_validation():
    with pytest.raises(ValueError):
        DiurnalProfile([])
    with pytest.raises(ValueError):
        DiurnalProfile([0.0, 0.0])
    with pytest.raises(ValueError):
        DiurnalProfile([1.0], period=0.0)
    with pytest.raises(ValueError):
        DiurnalProfile([-0.5, 1.0])


def test_profile_slots_and_boundaries():
    profile = DiurnalProfile([0.0, 1.0, 0.5, 0.25], period=40.0)
    assert profile.slot_width == 10.0
    assert profile.multiplier_at(0.0) == 0.0
    assert profile.multiplier_at(15.0) == 1.0
    assert profile.multiplier_at(45.0) == 0.0  # wraps into slot 0
    assert profile.next_boundary(0.0) == 10.0
    assert profile.next_boundary(10.0) == 20.0
    assert profile.next_boundary(39.9) == pytest.approx(40.0)
    assert profile.mean_multiplier() == 0.4375


def test_profile_sinusoidal_shape():
    profile = DiurnalProfile.sinusoidal(slots=24, floor=0.1)
    assert min(profile.multipliers) >= 0.1
    assert max(profile.multipliers) <= 1.0
    # Peaks mid-period, quiet at the edges.
    assert profile.multipliers[12] > 5 * profile.multipliers[0]


def test_profile_modulates_issue_rate():
    # Day slot 10x the night slot: issue counts must follow.
    profile = DiurnalProfile([0.1, 1.0], period=100.0)
    world = World(topology=Topology.balanced(1, 1, 1, 1), seed=3)
    sim = world.sim
    night, day = [], []

    def do_one(arrival):
        (night if sim.now < 50.0 else day).append(sim.now)
        yield sim.timeout(0.001)
        return True

    stats = LoadStats()
    cohort = AggregatedPopulation(
        sim, do_one, random.Random(8), None, clients=5000, think_time=20.0,
        stats=stats, duration=100.0, profile=profile)
    world.run_until(sim.process(cohort.run()), limit=1e9)
    assert len(day) > 5 * len(night)
    # Totals near the closed-form expectation: clients/T · ∫a(t)dt.
    expected = 5000 / 20.0 * (0.1 * 50.0 + 1.0 * 50.0)
    assert stats.issued == pytest.approx(expected, rel=0.15)


def test_profile_rejected_for_fixed_or_zero_think():
    with pytest.raises(ValueError):
        CohortScenario(10, 1.0, duration=1.0, think="fixed",
                       profile=DiurnalProfile([1.0]))
    with pytest.raises(ValueError):
        CohortScenario(10, 0.0, duration=1.0,
                       profile=DiurnalProfile([1.0]))


# -- constructor validation ---------------------------------------------------


def test_cohort_scenario_validation():
    with pytest.raises(ValueError):
        CohortScenario(0, 1.0, requests_per_client=1)
    with pytest.raises(ValueError):
        CohortScenario(1, 1.0)  # neither bound
    with pytest.raises(ValueError):
        CohortScenario(1, 1.0, requests_per_client=1, duration=1.0)
    with pytest.raises(ValueError):
        CohortScenario(1, -1.0, requests_per_client=1)
    with pytest.raises(ValueError):
        CohortScenario(1, 1.0, requests_per_client=1, cohort_size=0)
    with pytest.raises(ValueError):
        CohortScenario(1, 1.0, requests_per_client=1, think="uniform")
    assert CohortScenario(3, 1.0, requests_per_client=2).count == 6
    assert CohortScenario(3, 1.0, duration=2.0).count is None
