"""Unit/integration tests for the Globe Object Server."""

import pytest

from repro.gos.server import GosError, NotAuthorized
from repro.sim import rpc
from tests.util import GlobeBed, oid_from_seed


@pytest.fixture
def bed():
    return GlobeBed()


def test_create_object_allocates_oid_and_registers(bed):
    gos = bed.gos("gos-1", "r0/c0/m0/s0")

    def create():
        lr = yield from gos.create_local_replica(
            None, "test.kv", "client_server", "server")
        return lr

    lr = bed.run(create())
    assert lr.oid.hex in bed.gls.records
    assert bed.gls.records[lr.oid.hex][0]["host"] == "gos-1"
    assert lr.role == "server"


def test_control_commands_over_rpc(bed):
    gos = bed.gos("gos-1", "r0/c0/m0/s0")
    tool = bed.world.host("modtool", "r0/c0/m0/s1")

    def command(method, args):
        return bed.run(rpc.call(tool, gos.host, gos.port, method, args),
                       host=tool)

    created = command("create_object", {"impl_id": "test.kv",
                                         "protocol": "client_server",
                                         "role": "server"})
    assert list(gos.replicas) == [created["oid"]]
    assert gos.replicas[created["oid"]].role == "server"
    removed = command("remove_replica", {"oid": created["oid"]})
    assert removed["removed"] == created["oid"]
    assert gos.replicas == {}
    # Removal also deregistered the contact address.
    assert bed.gls.records[created["oid"]] == []


def test_requests_served_counts_across_a_crash_and_restart(bed):
    gos = bed.gos("gos-1", "r0/c0/m0/s0")
    tool = bed.world.host("modtool", "r0/c0/m0/s1")

    def ping():
        return bed.run(rpc.call(tool, gos.host, gos.port, "ping", {}),
                       host=tool)

    assert ping() == "pong"
    assert gos.requests_served == 1
    gos.host.crash()
    gos.host.crash()  # a second crash of a down host changes nothing
    gos.host.restart()
    gos.host.restart()  # nor does restarting a host that is up
    new = bed.object_servers["gos-1"]
    assert new is not gos  # a new server, which takes over the count
    assert new.requests_served == 1
    assert ping() == "pong"
    assert new.requests_served == 2


def test_a_replica_that_fails_to_join_leaves_no_record(bed):
    gos = bed.gos("gos-1", "r0/c0/m0/s0")
    home = bed.gos("gos-2", "r0/c0/m0/s1")
    master = bed.run(home.create_local_replica(
        None, "test.kv", "master_slave", "master"))
    home.host.crash()

    def join():
        try:
            yield from gos.create_local_replica(
                master.oid, "test.kv", "master_slave", "slave",
                master=master.contact_address)
        except Exception:  # noqa: BLE001 - any failure to join
            return "refused"

    assert bed.run(join()) == "refused"
    assert gos.replicas == {} and gos._records == {}


def test_a_checkpoint_queued_for_a_removed_replica_saves_nothing(bed):
    # A write queues its checkpoint; a remove_replica served in the
    # same instant runs first.
    gos = bed.gos("gos-1", "r0/c0/m0/s0")
    lr = bed.run(gos.create_local_replica(
        None, "test.kv", "client_server", "server"))
    gos.host.spawn(gos._checkpoint_one(lr.oid.hex))
    del gos.replicas[lr.oid.hex]
    bed.world.run()  # the queued checkpoint finds nothing to save


def test_shutdown_leaves_the_master_and_stops_serving(bed):
    from repro.sim.transport import ConnectRefused

    home = bed.gos("gos-1", "r0/c0/m0/s0")
    gos = bed.gos("gos-2", "r0/c0/m0/s1")
    tool = bed.world.host("modtool", "r0/c0/m0/s0")
    master = bed.run(home.create_local_replica(
        None, "test.kv", "master_slave", "master"))
    bed.run(gos.create_local_replica(
        master.oid, "test.kv", "master_slave", "slave",
        master=master.contact_address))
    assert len(master.replication.slaves) == 1
    assert bed.run(rpc.call(tool, gos.host, gos.port, "ping", {}),
                   host=tool) == "pong"
    served, opens = gos.requests_served, gos.pool.opens
    bed.run(gos.shutdown(), host=gos.host)
    bed.world.run()
    assert gos.replicas == {}
    assert master.replication.slaves == {}  # the slave said goodbye...
    assert gos.pool.opens == opens + 1  # ...over a channel reopened
    assert gos.requests_served == served

    def ping():
        try:
            yield from rpc.call(tool, gos.host, gos.port, "ping", {})
        except ConnectRefused:
            return "refused"

    assert bed.run(ping(), host=tool) == "refused"


def test_recovery_keeps_only_what_was_stored(bed):
    gos = bed.gos("gos-1", "r0/c0/m0/s0")
    lr = bed.run(gos.create_local_replica(
        None, "test.kv", "client_server", "server"))
    gos.replicas["ghost"] = gos._records["ghost"] = None  # never stored
    gos = bed.restart(gos)
    assert list(gos.replicas) == list(gos._records) == [lr.oid.hex]
    assert gos.persistence.reads == 1


def test_a_replica_added_and_removed_over_rpc_joins_and_leaves(bed):
    home = bed.gos("gos-1", "r0/c0/m0/s0")
    gos = bed.gos("gos-2", "r0/c0/m0/s1")
    tool = bed.world.host("modtool", "r0/c0/m0/s0")
    master = bed.run(home.create_local_replica(
        None, "test.kv", "master_slave", "master"))

    def command(method, args):
        return bed.run(rpc.call(tool, gos.host, gos.port, method, args),
                       host=tool)

    added = command("create_replica", {
        "oid": master.oid.hex, "impl_id": "test.kv",
        "protocol": "master_slave", "role": "slave",
        "master": master.contact_address.to_wire()})
    assert added == {"oid": master.oid.hex,
                     "ca": gos.replicas[master.oid.hex]
                     .contact_address.to_wire()}
    assert len(master.replication.slaves) == 1
    command("remove_replica", {"oid": master.oid.hex})
    bed.world.run()
    assert master.replication.slaves == {}  # the removed slave left


def test_remove_unknown_replica_faults(bed):
    gos = bed.gos("gos-1", "r0/c0/m0/s0")
    tool = bed.world.host("modtool", "r0/c0/m0/s1")

    def drive():
        try:
            yield from rpc.call(tool, gos.host, gos.port, "remove_replica",
                                {"oid": oid_from_seed("ghost").hex})
        except rpc.RpcFault as fault:
            return fault.kind

    assert bed.run(drive(), host=tool) == "GosError"


def test_a_known_protocol_with_an_unknown_role_is_refused(bed):
    gos = bed.gos("gos-1", "r0/c0/m0/s0")

    def create():
        try:
            yield from gos.create_local_replica(
                None, "test.kv", "client_server", "conductor")
        except GosError as error:
            return str(error)

    assert bed.run(create()) == "no implementation for client_server/conductor"
    assert gos.replicas == {}


def test_dso_message_to_missing_replica_is_an_error_reply(bed):
    gos = bed.gos("gos-1", "r0/c0/m0/s0")
    client = bed.world.host("client", "r0/c0/m0/s1")

    def drive():
        reply = yield from rpc.call(
            client, gos.host, gos.port, "dso_message",
            {"oid": oid_from_seed("ghost").hex, "msg": {"type": "pull"}})
        return reply

    reply = bed.run(drive(), host=client)
    assert reply["type"] == "error"


@pytest.mark.parametrize("method", ["create_object", "create_replica",
                                    "remove_replica"])
def test_authorizer_blocks_control_commands(bed, method):
    # Every control command, not only the first, asks the authorizer:
    # refused, it leaves the server's replicas as they were.
    def deny_all(ctx, operation, oid_hex=None):
        return False

    gos = bed.gos("gos-1", "r0/c0/m0/s0", authorizer=deny_all)
    tool = bed.world.host("modtool", "r0/c0/m0/s1")
    hosted = bed.run(gos.create_local_replica(
        None, "test.kv", "client_server", "server"))
    args = {"impl_id": "test.kv", "protocol": "client_server",
            "role": "server"}
    if method != "create_object":
        args = dict(args, oid=hosted.oid.hex, role="client")

    def drive():
        try:
            yield from rpc.call(tool, gos.host, gos.port, method, args)
        except rpc.RpcFault as fault:
            return fault.kind

    assert bed.run(drive(), host=tool) == "NotAuthorized"
    assert list(gos.replicas) == [hosted.oid.hex]


def test_authorizer_blocks_write_invocations_but_not_reads(bed):
    from repro.core.marshal import marshal_invocation

    def modify_needs_principal(ctx, operation, oid_hex=None):
        if operation == "modify":
            return ctx.peer_principal == "moderator"
        return True

    gos = bed.gos("gos-1", "r0/c0/m0/s0",
                  authorizer=modify_needs_principal)

    def create():
        lr = yield from gos.create_local_replica(
            None, "test.kv", "client_server", "server")
        return lr

    lr = bed.run(create())
    client = bed.world.host("client", "r0/c0/m0/s1")

    def drive():
        write = {"type": "invoke", "mode": "write",
                 "payload": marshal_invocation("put", {"key": "k",
                                                       "value": "v"})}
        read = {"type": "invoke", "mode": "read",
                "payload": marshal_invocation("size", {})}
        outcome = {}
        try:
            yield from rpc.call(client, gos.host, gos.port, "dso_message",
                                {"oid": lr.oid.hex, "msg": write})
            outcome["write"] = "allowed"
        except rpc.RpcFault as fault:
            outcome["write"] = fault.kind
        reply = yield from rpc.call(client, gos.host, gos.port, "dso_message",
                                    {"oid": lr.oid.hex, "msg": read})
        outcome["read"] = reply["type"]
        return outcome

    outcome = bed.run(drive(), host=client)
    assert outcome["write"] == "NotAuthorized"
    assert outcome["read"] == "result"


def test_graceful_shutdown_and_recover_preserves_state(bed):
    gos = bed.gos("gos-1", "r0/c0/m0/s0")

    def create_and_fill():
        lr = yield from gos.create_local_replica(
            None, "test.kv", "client_server", "server")
        lr.semantics.put("persist", "me")
        yield from gos.shutdown()
        return lr.oid

    oid = bed.run(create_and_fill())
    gos = bed.restart(gos)
    assert gos.replicas[oid.hex].semantics.data == {"persist": "me"}


def test_crash_without_checkpoint_recovers_creation_time_state(bed):
    gos = bed.gos("gos-1", "r0/c0/m0/s0")

    def create():
        lr = yield from gos.create_local_replica(
            None, "test.kv", "client_server", "server")
        # Mutate *after* the creation checkpoint, then crash hard.
        lr.semantics.put("lost", "update")
        return lr.oid

    oid = bed.run(create())
    gos = bed.restart(gos)
    # The uncheckpointed write is gone; the replica itself survived.
    assert oid.hex in gos.replicas
    assert gos.replicas[oid.hex].semantics.data == {}


def test_recovered_slave_rejoins_and_catches_up(bed):
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
    slave_gos.host.crash()
    # While the slave is down, the master takes a write.
    master_lr.semantics.put("while-down", "missed")
    master_lr.replication.version += 1
    slave_gos.host.restart()
    slave_gos = bed.object_servers["gos-slave"]
    bed.world.run_until(slave_gos.recovery)
    slave_lr = slave_gos.replicas[master_lr.oid.hex]
    assert slave_lr.semantics.data == {"while-down": "missed"}
    assert slave_lr.replication.version == master_lr.replication.version


def test_ping(bed):
    gos = bed.gos("gos-1", "r0/c0/m0/s0")
    client = bed.world.host("client", "r0/c0/m0/s1")

    def drive():
        value = yield from rpc.call(client, gos.host, gos.port, "ping", {})
        return value

    assert bed.run(drive(), host=client) == "pong"
