"""Regression tests: replication protocol state survives reboots.

A recovered master that forgot its slave list (or rolled its version
counter back) would silently stop propagating writes — slaves ignore
pushes with stale version numbers.  Protocol state therefore
checkpoints next to semantics state, and the object server's
write-through checkpoints make the master's counter monotonic across
crashes — except for a crash between a write's push and its
checkpoint, which the master's incarnation epoch covers.

A single crash at any event of a package's life is the crash-point
sweep's (``tests/integration/test_crash_points.py``); what stays here
needs what the sweep does not do.
"""

import pytest

from tests.util import GlobeBed, PackageBed


@pytest.fixture
def bed():
    return GlobeBed()


def _build_pair(bed):
    master_gos = bed.gos("gos-master", "r0/c0/m0/s0")
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
    """Drive a write through the GOS message path (so that its
    checkpoint is written, as it would be for real clients)."""
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


def test_master_version_is_monotonic_across_reboot(bed):
    # Kept beside the crash-point sweep: a unit of one master's
    # version across its reboot (the sweep compares replicas).
    master_gos, slave_gos, master_lr = _build_pair(bed)
    for index in range(3):
        _write(bed, master_gos, master_lr.oid, "k%d" % index, "v")
    bed.world.run(until=bed.world.now + 5)
    version_before = master_gos.replicas[master_lr.oid.hex] \
        .replication.version
    assert version_before == 3

    master_gos = bed.restart(master_gos)
    recovered = master_gos.replicas[master_lr.oid.hex]
    # Write-through persisted every increment: no rollback, and
    # the slave (also at 3) will accept the next push (version 4).
    assert recovered.replication.version == version_before
    _write(bed, master_gos, master_lr.oid, "post", "crash")
    bed.world.run(until=bed.world.now + 5)
    slave_lr = slave_gos.replicas[master_lr.oid.hex]
    assert slave_lr.semantics.get("post") == "crash"
    assert slave_lr.replication.version == version_before + 1


class _SameSiteBed(PackageBed):
    """The slave on its master's site: a push lands there in 0.3 ms,
    well inside the DISK_WRITE_LATENCY (5 ms) a checkpoint takes."""

    SLAVE_SITE = PackageBed.MASTER_SITE


def test_a_recovered_master_is_a_new_incarnation_even_twice():
    """The master answers a write, its slave has it, and the master
    crashes while that write's checkpoint is still on its way to disk:
    it comes back one version behind the slave, as a new incarnation.
    Recovery makes that incarnation durable before the master serves,
    so a second crash before any write cannot bring back the first
    recovery's epoch."""
    # Kept beside the crash-point sweep: two crashes.
    bed = _SameSiteBed()
    bed.write("addFile", path="a", data=b"kept")
    bed.settle()
    # The answer reaches the writer, one city hop away, 2 ms after the
    # master sent it: the push has landed, the checkpoint has not.
    bed.write("addFile", path="b", data=b"forgotten")
    assert bed.slave.semantics.getFileContents("b") == b"forgotten"
    bed.restart(bed.master_gos)
    assert bed.master.replication.version == \
        bed.slave.replication.version - 1
    epoch = bed.master.replication.epoch
    assert epoch == 1
    bed.restart(bed.master_gos)
    assert bed.master.replication.epoch == epoch + 1
    bed.write("addFile", path="c", data=b"new")
    bed.settle()
    assert bed.slave.semantics.getHistory() == \
        bed.master.semantics.getHistory()
