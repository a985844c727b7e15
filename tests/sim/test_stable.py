"""Simulated stable storage: namespaced records that outlive crashes."""

from repro.sim.stable import (DISK_READ_LATENCY, DISK_WRITE_LATENCY,
                              StableStore)
from repro.sim.topology import Topology
from repro.sim.world import World


def _run(world, generator):
    return world.run_until(world.sim.process(generator), limit=100)


def test_load_returns_a_copy_of_the_saved_record_after_read_latency():
    world = World(topology=Topology.balanced(1, 1, 1, 1), seed=1)
    host = world.host("gos-0", "r0/c0/m0/s0")
    store = StableStore(host, "replicas")
    record = {"version": 3, "peers": ["a"]}
    _run(world, store.save("oid-1", record))
    assert world.now == DISK_WRITE_LATENCY
    record["version"] = 4                   # saved a copy, not the dict
    loaded = _run(world, store.load_all())
    assert loaded == {"oid-1": {"version": 3, "peers": ["a"]}}
    assert world.now == DISK_WRITE_LATENCY + DISK_READ_LATENCY
    loaded["oid-1"]["peers"].append("c")    # loaded a copy, not the disk's
    assert _run(world, store.load_all()) == {
        "oid-1": {"version": 3, "peers": ["a"]}}
    # Namespaces on one disk do not see each other's keys.
    assert _run(world, StableStore(host, "gls").load_all()) == {}
    assert (store.writes, store.reads) == (1, 2)


def test_wipe_destroys_one_hosts_disk_only():
    world = World(topology=Topology.balanced(1, 1, 1, 1), seed=1)
    lost_host = world.host("gos-0", "r0/c0/m0/s0")
    lost = StableStore(lost_host, "replicas")
    kept = StableStore(world.host("gos-1", "r0/c0/m0/s0"), "replicas")
    _run(world, lost.save("oid-1", {"v": 1}))
    _run(world, kept.save("oid-1", {"v": 2}))
    lost_host.crash()
    lost_host.restart()
    assert _run(world, lost.load_all()) == {"oid-1": {"v": 1}}  # kept
    lost_host.disk.clear()                   # media loss
    assert _run(world, lost.load_all()) == {}
    assert _run(world, kept.load_all()) == {"oid-1": {"v": 2}}


def test_remove_deletes_the_record_after_write_latency():
    world = World(topology=Topology.balanced(1, 1, 1, 1), seed=1)
    store = StableStore(world.host("gos-0", "r0/c0/m0/s0"), "replicas")
    _run(world, store.save("oid-1", {"version": 3}))
    _run(world, store.remove("oid-1"))
    assert world.now == 2 * DISK_WRITE_LATENCY
    assert _run(world, store.load_all()) == {}
    assert store.writes == 2
