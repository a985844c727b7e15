"""Pinning tests: ``deliver_burst``/``send_burst`` vs the scalar path.

The batched delivery layer must be *observably identical* to n scalar
``deliver``/``send_to`` calls — same metering, same per-message
loss/partition/down checks, same RNG draw order, same arrival
``(time, seq)`` ordering — differing only in kernel cost (one timer
per burst).  Every test here runs both paths and compares.
"""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.network import LinkParameters, Network
from repro.sim.topology import Level, Topology
from repro.sim.world import World


def make_net(seed=0, **params):
    sim = Simulator()
    topo = Topology.balanced(regions=2, countries=2, cities=2, sites=2)
    return Network(sim, topo, params=LinkParameters(**params), seed=seed)


def burst_vs_scalar(messages, *, src="r0/c0/m0/s0", dst="r1/c0/m0/s0",
                    dst_host="hostB", setup=None, **params):
    """Run the same message list through both paths; return both
    observations as (arrival log, bytes by level, drops, scheduled)."""
    results = []
    for batched in (False, True):
        net = make_net(**params)
        topo = net.topology
        a, b = topo.site(src), topo.site(dst)
        if setup is not None:
            setup(net)
        log = []

        def deliver_fn(tag):
            return lambda _event: log.append((net.sim.now, tag))

        if batched:
            scheduled = net.deliver_burst(
                a, b, dst_host,
                [(size, deliver_fn(tag)) for size, tag in messages])
        else:
            scheduled = sum(
                net.deliver(a, b, dst_host, size, deliver_fn(tag))
                for size, tag in messages)
        net.sim.run()
        results.append((log, dict(net.meter.bytes_by_level),
                        net.meter.dropped_messages, scheduled))
    return results


def test_burst_matches_scalar_clean_path():
    scalar, burst = burst_vs_scalar([(100 * (i + 1), i) for i in range(8)])
    assert burst == scalar
    assert burst[3] == 8


def test_burst_matches_scalar_with_loss_and_jitter():
    scalar, burst = burst_vs_scalar(
        [(500, i) for i in range(40)],
        loss={Level.WORLD: 0.3}, jitter_fraction=0.2, seed=11)
    assert burst == scalar
    assert burst[2] > 0  # losses actually happened
    assert burst[3] < 40


def test_burst_matches_scalar_down_host():
    scalar, burst = burst_vs_scalar(
        [(100, i) for i in range(5)],
        setup=lambda net: net.set_host_down("hostB"))
    assert burst == scalar
    assert burst[3] == 0
    assert burst[2] == 5  # every message metered as a drop
    assert burst[1][Level.WORLD] == 500  # ... but bytes charged at send


def test_burst_matches_scalar_across_partition():
    def cut(net):
        net.partition_domain(net.topology.domain("r0"))

    scalar, burst = burst_vs_scalar([(100, i) for i in range(5)],
                                    setup=cut)
    assert burst == scalar
    assert burst[3] == 0


def test_varied_sizes_arrive_in_size_order_not_send_order():
    # Bigger messages take longer: send order 0..3 with shrinking
    # sizes must arrive reversed, on both paths identically.
    scalar, burst = burst_vs_scalar(
        [(1_000_000 - 200_000 * i, i) for i in range(4)])
    assert burst == scalar
    arrival_tags = [tag for _t, tag in burst[0]]
    assert arrival_tags == [3, 2, 1, 0]


def test_burst_uses_one_timer():
    net = make_net()
    topo = net.topology
    a, b = topo.site("r0/c0/m0/s0"), topo.site("r0/c0/m0/s1")
    before = net.sim.timers_scheduled
    net.deliver_burst(a, b, "h", [(100, lambda _e: None)
                                  for _ in range(50)])
    assert net.sim.timers_scheduled - before == 1
    net.sim.run()


def test_burst_counters():
    net = make_net(loss={Level.COUNTRY: 1.0})
    topo = net.topology
    a, b = topo.site("r0/c0/m0/s0"), topo.site("r0/c0/m1/s0")
    assert net.deliver_burst(a, b, "h", [(10, lambda _e: None)] * 4) == 0
    assert (net.burst_calls, net.burst_messages) == (1, 0)
    same = topo.site("r0/c0/m0/s1")
    assert net.deliver_burst(a, same, "h",
                             [(10, lambda _e: None)] * 3) == 3
    assert (net.burst_calls, net.burst_messages) == (2, 3)


def test_empty_burst():
    net = make_net()
    topo = net.topology
    a, b = topo.site("r0/c0/m0/s0"), topo.site("r0/c0/m0/s1")
    assert net.deliver_burst(a, b, "h", []) == 0
    net.sim.run()
    assert net.sim.events_processed == 0


# -- transport: send_burst ---------------------------------------------------


def udp_world(seed=3, **params):
    world = World(topology=Topology.balanced(2, 2, 2, 2), seed=seed,
                  params=LinkParameters(**params))
    a = world.host("alpha", world.topology.site("r0/c0/m0/s0"))
    b = world.host("beta", world.topology.site("r1/c1/m1/s1"))
    return world, a, b


def drive_udp(batched, **params):
    world, a, b = udp_world(**params)
    sender = a.udp_socket(100)
    receiver = b.udp_socket(200)
    log = []

    def drain():
        while True:
            datagram = yield receiver.recv()
            log.append((world.now, datagram.payload, datagram.size,
                        datagram.src_port))
    b.spawn(drain())
    items = [(("chunk", i), 64 + 32 * i) for i in range(12)]
    if batched:
        sent = sender.send_burst(b, 200, items)
    else:
        for payload, size in items:
            sender.send_to(b, 200, payload, size=size)
        sent = None
    world.run(until=30.0)
    return log, dict(world.network.meter.bytes_by_level), sent


def test_send_burst_matches_send_to():
    scalar = drive_udp(batched=False)
    burst = drive_udp(batched=True)
    assert burst[0] == scalar[0]
    assert burst[1] == scalar[1]
    assert len(burst[0]) == 12


def test_send_burst_matches_send_to_lossy():
    scalar = drive_udp(batched=False, loss={Level.WORLD: 0.25},
                       jitter_fraction=0.1)
    burst = drive_udp(batched=True, loss={Level.WORLD: 0.25},
                      jitter_fraction=0.1)
    assert burst[0] == scalar[0]
    assert burst[1] == scalar[1]
    assert burst[2] == len(burst[0])  # scheduled == arrived (no drops
    # after the loss draw: host is up, port bound)


def test_send_burst_closed_socket_raises():
    from repro.sim.transport import TransportError
    world, a, b = udp_world()
    sock = a.udp_socket(1)
    sock.close()
    with pytest.raises(TransportError):
        sock.send_burst(b, 2, [("x", None)])
