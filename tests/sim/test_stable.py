"""Simulated stable storage: namespaced records that outlive crashes."""

from repro.sim.stable import (DISK_READ_LATENCY, DISK_WRITE_LATENCY,
                              DiskStore, StableStore)
from repro.sim.topology import Topology
from repro.sim.world import World


def _run(world, generator):
    return world.run_until(world.sim.process(generator), limit=100)


def test_load_returns_a_copy_of_the_saved_record_after_read_latency():
    world = World(topology=Topology.balanced(1, 1, 1, 1), seed=1)
    disk = DiskStore()
    store = StableStore(world, disk, "gos-0", "replicas")
    record = {"version": 3}
    _run(world, store.save("oid-1", record))
    assert world.now == DISK_WRITE_LATENCY
    loaded = _run(world, store.load("oid-1"))
    assert loaded == {"version": 3}
    assert world.now == DISK_WRITE_LATENCY + DISK_READ_LATENCY
    loaded["version"] = 99                  # a copy, not the disk's
    assert _run(world, store.load("oid-1")) == {"version": 3}
    assert _run(world, store.load("never-saved")) is None
    # Namespaces on one disk do not see each other's keys.
    other = StableStore(world, disk, "gos-0", "gls")
    assert _run(world, other.load("oid-1")) is None
    assert (store.writes, store.reads) == (1, 3)


def test_wipe_destroys_one_hosts_disk_only():
    world = World(topology=Topology.balanced(1, 1, 1, 1), seed=1)
    disk = DiskStore()
    lost = StableStore(world, disk, "gos-0", "replicas")
    kept = StableStore(world, disk, "gos-1", "replicas")
    _run(world, lost.save("oid-1", {"v": 1}))
    _run(world, kept.save("oid-1", {"v": 2}))
    disk.wipe("gos-0")
    disk.wipe("never-seen")                 # no disk yet: a no-op
    assert _run(world, lost.load("oid-1")) is None
    assert _run(world, lost.load_all()) == {}
    assert _run(world, kept.load("oid-1")) == {"v": 2}
