"""Unit tests for scheduled failure injection."""

import pytest

from repro.sim.failures import FailureInjector
from repro.sim.topology import Level, Topology
from repro.sim.world import World


@pytest.fixture
def world():
    return World(topology=Topology.balanced(2, 2, 2, 2), seed=1)


def test_crash_and_restart_schedule(world):
    host = world.host("victim", "r0/c0/m0/s0")
    booted = []
    host.install(lambda: booted.append(world.now))
    injector = FailureInjector(world)
    injector.crash_restart(host, crash_at=5.0, restart_at=10.0)
    world.run(until=4.0)
    assert host.up
    world.run(until=6.0)
    assert not host.up
    world.run(until=11.0)
    assert host.up
    assert booted == [0.0, 10.0]  # at install, then at the restart
    assert [(t, kind) for t, kind, _ in injector.log] == [
        (5.0, "crash"), (10.0, "restart")]


def test_restart_before_crash_rejected(world):
    host = world.host("victim", "r0/c0/m0/s0")
    injector = FailureInjector(world)
    with pytest.raises(ValueError):
        injector.crash_restart(host, crash_at=5.0, restart_at=5.0)


def test_partition_window(world):
    injector = FailureInjector(world)
    domain = world.topology.domain("r0/c0")
    injector.partition_domain(domain, start=2.0, duration=3.0)
    inside = world.topology.site("r0/c0/m0/s0")
    outside = world.topology.site("r1/c0/m0/s0")

    world.run(until=1.0)
    assert world.network.deliver(inside, outside, "h", 1, lambda _e: None)
    world.run(until=3.0)
    assert not world.network.deliver(inside, outside, "h", 1, lambda _e: None)
    world.run(until=6.0)
    assert world.network.deliver(inside, outside, "h", 1, lambda _e: None)


def test_loss_setting_validated(world):
    injector = FailureInjector(world)
    with pytest.raises(ValueError):
        injector.set_loss(Level.WORLD, 1.5)
    injector.set_loss(Level.WORLD, 0.25)
    assert world.network.params.loss[Level.WORLD] == 0.25


def test_faults_fire_at_exactly_the_instant_given(world):
    # Regression: sleeping timeout(when - now) from t=0.2 woke at
    # 0.8999999999999999 for when=0.9; every fault must land on the
    # instant it was given, bit for bit.
    host = world.host("victim", "r0/c0/m0/s0")
    injector = FailureInjector(world)
    world.run(until=0.2)
    injector.crash_restart(host, crash_at=0.9, restart_at=1.3)
    injector.partition_domain(world.topology.domain("r1/c0"), 0.9, 1.0)
    world.run(until=3.0)
    assert sorted((t, kind) for t, kind, _ in injector.log) == [
        (0.9, "crash"), (0.9, "partition"), (1.3, "restart"),
        (1.9, "heal")]


def test_overlapping_partitions_of_one_domain_heal_with_the_last():
    # Regression: the network keeps a set of partitioned domains, so
    # the first window's heal lifted the cut while the second window
    # still had five seconds to run.
    world = World(topology=Topology.balanced(2, 1, 1, 2), seed=1)
    injector = FailureInjector(world)
    r1 = world.topology.domain("r1")
    injector.partition_domain(r1, 0.0, 10.0)
    injector.partition_domain(r1, 5.0, 10.0)
    inside = world.topology.site("r1/c0/m0/s0")
    outside = world.topology.site("r0/c0/m0/s0")
    reached = []
    for when in (2.0, 7.0, 12.0, 16.0):
        world.run(until=when)
        reached.append(world.network.deliver(inside, outside, "h", 1,
                                             lambda _e: None))
    assert reached == [False, False, False, True]
    assert [(t, kind) for t, kind, _ in injector.log] == [
        (0.0, "partition"), (5.0, "partition"), (10.0, "heal"),
        (15.0, "heal")]


def test_a_crash_due_now_arms_no_timer_and_loss_is_logged(world):
    host = world.host("victim", "r0/c0/m0/s0")
    injector = FailureInjector(world)
    injector.crash_restart(host, crash_at=0.0, restart_at=1.0)
    world.run(until=0.5)
    assert not host.up and world.sim.timers_scheduled == 1
    injector.set_loss(Level.CITY, 0.25)
    assert injector.log[-1] == (0.5, "loss=0.25", "CITY")
