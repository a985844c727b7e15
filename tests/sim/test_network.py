"""Unit tests for the network cost model and traffic accounting."""

import random

import pytest

from repro.sim.kernel import Simulator
from repro.sim.network import (DEFAULT_BANDWIDTH, DEFAULT_LATENCY,
                               LinkParameters, Network, NetworkError)
from repro.sim.topology import Level, Topology
from tests.lossy import DatagramMeddler


@pytest.fixture
def net():
    sim = Simulator()
    topo = Topology.balanced(regions=2, countries=2, cities=2, sites=2)
    return Network(sim, topo)


def test_latency_tiering(net):
    topo = net.topology
    a = topo.site("r0/c0/m0/s0")
    # A zero-byte message takes exactly the one-way latency.
    assert net.transfer_delay(a, a, 0) == DEFAULT_LATENCY[Level.SITE]
    assert (net.transfer_delay(a, topo.site("r0/c0/m0/s1"), 0)
            == DEFAULT_LATENCY[Level.CITY])
    assert (net.transfer_delay(a, topo.site("r1/c0/m0/s0"), 0)
            == DEFAULT_LATENCY[Level.WORLD])


def test_latency_monotone_in_distance(net):
    topo = net.topology
    a = topo.site("r0/c0/m0/s0")
    others = ["r0/c0/m0/s0", "r0/c0/m0/s1", "r0/c0/m1/s0",
              "r0/c1/m0/s0", "r1/c0/m0/s0"]
    latencies = [net.transfer_delay(a, topo.site(p), 0) for p in others]
    assert latencies == sorted(latencies)


def test_transfer_delay_includes_bandwidth(net):
    topo = net.topology
    a = topo.site("r0/c0/m0/s0")
    b = topo.site("r1/c0/m0/s0")
    size = 1_500_000
    expected = (DEFAULT_LATENCY[Level.WORLD]
                + size / DEFAULT_BANDWIDTH[Level.WORLD])
    assert net.transfer_delay(a, b, size) == pytest.approx(expected)


def test_delivery_and_metering(net):
    topo = net.topology
    a = topo.site("r0/c0/m0/s0")
    b = topo.site("r1/c0/m0/s0")
    arrived = []
    ok = net.deliver(a, b, "hostB", 1000, lambda _e: arrived.append(net.sim.now))
    assert ok
    net.sim.run()
    assert len(arrived) == 1
    assert arrived[0] == pytest.approx(net.transfer_delay(a, b, 1000))
    assert net.meter.bytes_by_level[Level.WORLD] == 1000
    assert net.meter.total_messages == 1


def test_wide_area_bytes_counts_region_and_world(net):
    topo = net.topology
    a = topo.site("r0/c0/m0/s0")
    net.deliver(a, topo.site("r0/c0/m0/s1"), "h", 10, lambda _e: None)
    net.deliver(a, topo.site("r0/c1/m0/s0"), "h", 100, lambda _e: None)
    net.deliver(a, topo.site("r1/c0/m0/s0"), "h", 1000, lambda _e: None)
    assert net.meter.wide_area_bytes() == 1100


def test_down_host_drops(net):
    topo = net.topology
    a = topo.site("r0/c0/m0/s0")
    net.set_host_down("dead")
    delivered = net.deliver(a, a, "dead", 10, lambda _e: None)
    assert not delivered
    assert net.meter.dropped_messages == 1
    net.set_host_down("dead", down=False)
    assert net.deliver(a, a, "dead", 10, lambda _e: None)


def test_partition_blocks_boundary_crossing(net):
    topo = net.topology
    inside = topo.site("r0/c0/m0/s0")
    inside2 = topo.site("r0/c0/m1/s0")
    outside = topo.site("r1/c0/m0/s0")
    net.partition_domain(topo.domain("r0"))
    assert not net.deliver(inside, outside, "h", 1, lambda _e: None)
    assert not net.deliver(outside, inside, "h", 1, lambda _e: None)
    assert net.deliver(inside, inside2, "h", 1, lambda _e: None)
    net.heal_domain(topo.domain("r0"))
    assert net.deliver(inside, outside, "h", 1, lambda _e: None)


def test_unreliable_loss_is_deterministic_per_seed():
    def drops(seed):
        sim = Simulator()
        topo = Topology.balanced(regions=2, countries=1, cities=1, sites=1)
        params = LinkParameters(loss={Level.WORLD: 0.5})
        net = Network(sim, topo, params, seed=seed)
        a = topo.site("r0/c0/m0/s0")
        b = topo.site("r1/c0/m0/s0")
        return [net.deliver(a, b, "h", 1, lambda _e: None) for _ in range(50)]

    assert drops(1) == drops(1)
    assert drops(1) != drops(2)  # overwhelmingly likely


def test_a_draw_equal_to_the_loss_rate_delivers():
    # A message is lost when its draw falls below the rate, so it is
    # lost with probability exactly ``loss``, on the scalar and the
    # burst path alike.
    class Draws(random.Random):
        def random(self):
            return 0.25

    sim = Simulator()
    topo = Topology.balanced(regions=2, countries=1, cities=1, sites=1)
    net = Network(sim, topo, LinkParameters(loss={Level.WORLD: 0.25}))
    net.rng = Draws()
    a, b = topo.site("r0/c0/m0/s0"), topo.site("r1/c0/m0/s0")
    assert net.deliver(a, b, "h", 1, lambda _e: None)
    assert net.deliver_burst(a, b, "h", [(1, lambda _e: None)]) == 1
    assert net.meter.dropped_messages == 0


def test_reliable_traffic_ignores_loss():
    sim = Simulator()
    topo = Topology.balanced(regions=2, countries=1, cities=1, sites=1)
    params = LinkParameters(loss={Level.WORLD: 1.0})
    net = Network(sim, topo, params)
    a = topo.site("r0/c0/m0/s0")
    b = topo.site("r1/c0/m0/s0")
    assert net.deliver(a, b, "h", 1, lambda _e: None, reliable=True)


def test_jitter_fraction_validation():
    with pytest.raises(NetworkError):
        LinkParameters(jitter_fraction=1.5)
    # [0, 1): a delay may grow by less than itself, never double.
    with pytest.raises(NetworkError):
        LinkParameters(jitter_fraction=1.0)
    assert LinkParameters(jitter_fraction=0.0).jitter_fraction == 0.0


def test_a_lossless_link_draws_only_its_jitter():
    # A link with no loss draws no loss number: each message's one
    # draw is its jitter, so the delays are the seed's uniform draws in
    # turn, on the scalar and the burst path alike.  (The goldens'
    # jittered runs rely on it: one extra draw shifts every later
    # delay.)
    sim = Simulator()
    topo = Topology.balanced(regions=2, countries=1, cities=1, sites=1)
    net = Network(sim, topo, LinkParameters(jitter_fraction=0.5), seed=7)
    a, b = topo.site("r0/c0/m0/s0"), topo.site("r1/c0/m0/s0")
    arrivals = []
    for _ in range(3):
        net.deliver(a, b, "h", 0, lambda _e: arrivals.append(sim.now))
    net.deliver_burst(a, b, "h", [
        (0, lambda _e: arrivals.append(sim.now)) for _ in range(3)])
    sim.run()
    draws = random.Random(7)
    expected = sorted(DEFAULT_LATENCY[Level.WORLD]
                      * (1.0 + draws.uniform(0, 0.5)) for _ in range(6))
    assert sorted(arrivals) == pytest.approx(expected, rel=1e-12)
    # A connection's delay (transfer_delay) draws from the same stream.
    assert net.transfer_delay(a, b, 0) == pytest.approx(
        DEFAULT_LATENCY[Level.WORLD] * (1.0 + draws.uniform(0, 0.5)),
        rel=1e-12)


# -- partition-membership caching -------------------------------------------


def _naive_crosses(partitioned, site_a, site_b):
    """The pre-cache reference: one ancestor walk per partitioned
    domain per message."""
    for domain in partitioned:
        inside_a = any(anc is domain for anc in site_a.ancestors())
        inside_b = any(anc is domain for anc in site_b.ancestors())
        if inside_a != inside_b:
            return True
    return False


def test_partition_cache_matches_naive_walk_across_mutations(net):
    topo = net.topology
    sites = list(topo.sites)
    mutations = [
        ("partition", topo.domain("r0")),
        ("partition", topo.domain("r1/c0")),
        ("partition", topo.domain("r0/c1/m0")),
        ("heal", topo.domain("r0")),
        ("partition", topo.site("r1/c1/m1/s1")),
        ("heal", topo.domain("r1/c0")),
        ("heal", topo.domain("r0/c1/m0")),
        ("heal", topo.site("r1/c1/m1/s1")),
    ]
    for op, domain in mutations:
        if op == "partition":
            net.partition_domain(domain)
        else:
            net.heal_domain(domain)
        for a in sites:
            for b in sites:
                assert net._crosses_partition(a, b) \
                    == _naive_crosses(net._partitioned, a, b), \
                    (op, domain.path, a.path, b.path)
    assert not net._partitioned


def test_partition_cache_is_invalidated_on_partition_and_heal(net):
    topo = net.topology
    a = topo.site("r0/c0/m0/s0")
    b = topo.site("r1/c0/m0/s0")
    assert not net._crosses_partition(a, b)
    net.partition_domain(topo.domain("r0"))
    assert net._crosses_partition(a, b)   # stale cache would say False
    net.heal_domain(topo.domain("r0"))
    assert not net._crosses_partition(a, b)


def test_partition_drop_metering_is_byte_identical_to_naive_walk():
    """Replaying the same partitioned traffic against the cached and
    the naive membership check meters byte-identical ledgers — the
    cache is a pure optimisation."""

    class NaiveNetwork(Network):
        def _crosses_partition(self, site_a, site_b):
            return _naive_crosses(self._partitioned, site_a, site_b)

    def one_run(cls):
        sim = Simulator()
        topo = Topology.balanced(regions=2, countries=2, cities=2, sites=2)
        network = cls(sim, topo, seed=5)
        sites = list(topo.sites)
        r0 = topo.domain("r0")
        c1 = topo.domain("r1/c1")
        for step in range(400):
            if step == 60:
                network.partition_domain(r0)
            if step == 180:
                network.partition_domain(c1)
            if step == 240:
                network.heal_domain(r0)
            if step == 330:
                network.heal_domain(c1)
            src = sites[(step * 7) % len(sites)]
            dst = sites[(step * 13 + 3) % len(sites)]
            network.deliver(src, dst, "host-%d" % (step % 5), 100 + step,
                            lambda _e: None, reliable=(step % 3 == 0))
        sim.run()
        meter = network.meter
        return (dict(meter.bytes_by_level), dict(meter.messages_by_level),
                meter.dropped_messages)

    assert one_run(Network) == one_run(NaiveNetwork)


# -- the late fate of tests/lossy.py ----------------------------------------


def _late_run(late):
    """Six datagrams over a lossy, jittery WORLD link, those in
    ``late`` held 2.5 s by a DatagramMeddler: the arrivals as
    ``(index, instant)`` and the network RNG's next three draws."""
    sim = Simulator()
    topo = Topology.balanced(regions=2, countries=1, cities=1, sites=1)
    params = LinkParameters(loss={Level.WORLD: 0.3}, jitter_fraction=0.25)
    net = Network(sim, topo, params, seed=9)
    a = topo.site("r0/c0/m0/s0")
    b = topo.site("r1/c0/m0/s0")
    DatagramMeddler(net, a, late=late, delay=2.5)
    sim.run(until=0.1)
    arrivals = []
    for index in range(6):
        net.deliver(a, b, "h", 300 * index,
                    lambda _e, i=index: arrivals.append((i, sim.now)))
    sim.run()
    return arrivals, [net.rng.random() for _ in range(3)]


def test_a_late_datagram_arrives_at_its_transit_plus_the_hold():
    # The held datagram's instant is now + (transit + hold), bit for
    # bit, and the RNG draws as for an on-time one: loss, then jitter.
    # Datagram 1 is held but lost, 4 lost on time.
    on_time, draws = _late_run(late=())
    held, held_draws = _late_run(late={1, 2, 3})
    assert held == [(0, 0.2639991974273141), (5, 0.2742785391113066),
                    (2, 2.7506419580334502), (3, 2.7844209185717026)]
    assert [index for index, _when in on_time] == [2, 0, 5, 3]
    assert [entry for entry in held if entry[0] in (0, 5)] \
        == [entry for entry in on_time if entry[0] in (0, 5)]
    assert held_draws == draws
