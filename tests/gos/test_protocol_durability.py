"""Regression tests: replication protocol state survives reboots.

A recovered master that forgot its slave list (or rolled its version
counter back) would silently stop propagating writes — slaves ignore
pushes with stale version numbers.  Protocol state therefore
checkpoints next to semantics state, and ``checkpoint_on_write`` makes
the master's counter monotonic across crashes — except for a crash
between a write's push and its checkpoint, which the master's
incarnation epoch covers.
"""

import pytest

from repro.sim.stable import DISK_WRITE_LATENCY
from tests.util import GlobeBed, PackageBed


@pytest.fixture
def bed():
    return GlobeBed()


def _build_pair(bed, checkpoint_on_write=True):
    master_gos = bed.gos("gos-master", "r0/c0/m0/s0",
                         checkpoint_on_write=checkpoint_on_write)
    slave_gos = bed.gos("gos-slave", "r1/c0/m0/s0")

    def build():
        master = yield from master_gos.create_local_replica(
            None, "test.kv", "master_slave", "master")
        yield from slave_gos.create_local_replica(
            master.oid, "test.kv", "master_slave", "slave",
            master=master.contact_address)
        return master

    master_lr = bed.run(build())
    return master_gos, slave_gos, master_lr


def _write(bed, master_gos, oid, key, value):
    """Drive a write through the GOS message path (so that
    checkpoint_on_write fires, as it would for real clients)."""
    from repro.core.marshal import marshal_invocation
    from repro.sim import rpc

    client = bed.world.hosts.get("writer") or bed.world.host(
        "writer", "r0/c0/m0/s1")

    def drive():
        yield from rpc.call(
            client, master_gos.host, master_gos.port, "dso_message",
            {"oid": oid.hex,
             "msg": {"type": "invoke", "mode": "write",
                     "payload": marshal_invocation(
                         "put", {"key": key, "value": value})}})

    bed.run(drive(), host=client)


def test_master_remembers_slaves_across_reboot(bed):
    master_gos, slave_gos, master_lr = _build_pair(bed)
    _write(bed, master_gos, master_lr.oid, "before", "1")
    bed.world.run(until=bed.world.now + 5)

    master_gos.host.crash()
    master_gos.host.restart()
    bed.run(master_gos.recover())
    recovered = master_gos.replicas[master_lr.oid.hex]
    # The slave list survived the reboot...
    assert recovered.replication.slaves
    # ...so post-recovery writes still reach the slave.
    _write(bed, master_gos, master_lr.oid, "after", "2")
    bed.world.run(until=bed.world.now + 5)
    slave_lr = slave_gos.replicas[master_lr.oid.hex]
    assert slave_lr.semantics.get("after") == "2"


def test_master_version_is_monotonic_across_reboot(bed):
    master_gos, slave_gos, master_lr = _build_pair(bed)
    for index in range(3):
        _write(bed, master_gos, master_lr.oid, "k%d" % index, "v")
    bed.world.run(until=bed.world.now + 5)
    version_before = master_gos.replicas[master_lr.oid.hex] \
        .replication.version
    assert version_before == 3

    master_gos.host.crash()
    master_gos.host.restart()
    bed.run(master_gos.recover())
    recovered = master_gos.replicas[master_lr.oid.hex]
    # checkpoint_on_write persisted every increment: no rollback, and
    # the slave (also at 3) will accept the next push (version 4).
    assert recovered.replication.version == version_before
    _write(bed, master_gos, master_lr.oid, "post", "crash")
    bed.world.run(until=bed.world.now + 5)
    slave_lr = slave_gos.replicas[master_lr.oid.hex]
    assert slave_lr.semantics.get("post") == "crash"
    assert slave_lr.replication.version == version_before + 1


def test_without_write_checkpointing_master_can_roll_back(bed):
    """The failure mode the durability machinery prevents, shown by
    disabling it: the slave ends up ahead of the recovered master
    (until the master's next write, which the slave follows as coming
    from a new incarnation)."""
    master_gos, slave_gos, master_lr = _build_pair(
        bed, checkpoint_on_write=False)
    for index in range(3):
        _write(bed, master_gos, master_lr.oid, "k%d" % index, "v")
    bed.world.run(until=bed.world.now + 5)

    master_gos.host.crash()
    master_gos.host.restart()
    bed.run(master_gos.recover())
    recovered = master_gos.replicas[master_lr.oid.hex]
    slave_lr = slave_gos.replicas[master_lr.oid.hex]
    # Rolled back to the creation checkpoint:
    assert recovered.replication.version < slave_lr.replication.version


def _crash_between_push_and_checkpoint():
    """The master answers a write, its slave has it, and the master
    crashes while that write's checkpoint is still on its way to disk.
    It comes back one version behind the slave."""
    bed = PackageBed(sync_push=True, checkpoint_on_write=True)
    bed.write("addFile", path="a", data=b"kept")
    bed.settle()
    bed.write("addFile", path="b", data=b"forgotten")
    assert bed.slave.semantics.getFileContents("b") == b"forgotten"
    bed.world.run(until=bed.world.now + DISK_WRITE_LATENCY / 2)
    _restart(bed)
    assert bed.master.replication.version == \
        bed.slave.replication.version - 1
    return bed


def _restart(bed):
    bed.master_gos.host.crash()
    bed.master_gos.host.restart()
    bed.run(bed.master_gos.recover(), host=bed.master_gos.host)


def test_master_recovered_from_before_its_last_write_is_followed():
    """The recovered master issues the slave's version again for a
    different write: the slave must follow it there, not keep the
    write the master has forgotten."""
    bed = _crash_between_push_and_checkpoint()
    bed.write("addFile", path="c", data=b"new")
    bed.settle()
    master, slave = bed.master.semantics, bed.slave.semantics
    assert "b" not in master._files
    assert slave.snapshot_state()["files"] == master.snapshot_state()["files"]
    assert slave.getHistory() == master.getHistory()


def test_a_recovered_master_is_a_new_incarnation_even_twice():
    """Recovery makes the new incarnation durable before the master
    serves, so a second crash before any write cannot bring back the
    first recovery's epoch."""
    bed = _crash_between_push_and_checkpoint()
    epoch = bed.master.replication.epoch
    assert epoch == 1
    _restart(bed)
    assert bed.master.replication.epoch == epoch + 1
    bed.write("addFile", path="c", data=b"new")
    bed.settle()
    assert bed.slave.semantics.getHistory() == \
        bed.master.semantics.getHistory()
