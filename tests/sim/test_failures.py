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
    injector = FailureInjector(world)
    recovered = []
    injector.crash_restart(host, crash_at=5.0, restart_at=10.0,
                           recover=lambda: recovered.append(world.now))
    world.run(until=4.0)
    assert host.up
    world.run(until=6.0)
    assert not host.up
    world.run(until=11.0)
    assert host.up
    assert recovered == [10.0]
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
    injector.loss_window(Level.WORLD, 0.5, 0.9, 1.3)
    world.run(until=3.0)
    assert sorted((t, kind) for t, kind, _ in injector.log) == [
        (0.9, "crash"), (0.9, "loss=0.5"), (0.9, "partition"),
        (1.3, "loss=0"), (1.3, "restart"), (1.9, "heal")]
    assert world.network.params.loss[Level.WORLD] == 0.0


def test_overlapping_loss_windows_restore_the_base_rate(world):
    # Regression: each window restored the rate it saw when it opened,
    # so A's close dropped B's rate and B's close brought A's back for
    # good.  The latest-opened open window rules; none open, the base.
    injector = FailureInjector(world)
    injector.loss_window(Level.REGION, 0.5, 0.0, 10.0)
    injector.loss_window(Level.REGION, 0.2, 5.0, 15.0)
    rates = []
    for when in (2.0, 7.0, 12.0, 16.0):
        world.run(until=when)
        rates.append(world.network.params.loss[Level.REGION])
    assert rates == [0.5, 0.2, 0.2, 0.0]
    assert [kind for _t, kind, _level in injector.log] == [
        "loss=0.5", "loss=0.2", "loss=0.2", "loss=0"]
