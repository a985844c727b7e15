"""Integration tests: replication protocols end-to-end through GOSs.

These exercise the full subobject stack of Figure 1(b): a client-side
local representative marshals invocations into opaque messages, its
replication subobject routes them, communication subobjects carry them
to Globe Object Servers, and replica-side representatives execute them
against semantics subobjects.
"""

from types import SimpleNamespace

import pytest

from repro.core.ids import ObjectId
from repro.core.replication.base import PROTOCOLS, ReplicationError
from repro.core.replication.cache import CachingClient
from repro.core.replication.client_server import ClientServerClient
from repro.core.replication.master_slave import MasterSlaveClient
from tests.util import GlobeBed


@pytest.fixture
def bed():
    return GlobeBed()


def _create_object(bed, gos, protocol, role="master", impl="test.kv"):
    def create():
        lr = yield from gos.create_local_replica(None, impl, protocol, role)
        return lr

    return bed.run(create())


def _add_replica(bed, gos, oid, master_ca, protocol, role, impl="test.kv"):
    def create():
        lr = yield from gos.create_local_replica(
            oid, impl, protocol, role, master=master_ca)
        return lr

    return bed.run(create())


# -- client/server -----------------------------------------------------------


def test_client_server_end_to_end(bed):
    gos = bed.gos("gos-1", "r0/c0/m0/s0")
    server_lr = _create_object(bed, gos, "client_server", role="server")
    runtime = bed.runtime("client-1", "r1/c0/m0/s0")

    def use():
        lr = yield from runtime.bind(server_lr.oid)
        yield from lr.invoke("put", {"key": "gimp", "value": "1.2"})
        value = yield from lr.invoke("get", {"key": "gimp"})
        size = yield from lr.invoke("size")
        return value, size, lr.role

    value, size, role = bed.run(use(), host=runtime.host)
    assert value == "1.2"
    assert size == 1
    assert role == "client"
    # All state lives on the server; the client proxy held none.
    assert server_lr.semantics.data == {"gimp": "1.2"}


def test_client_server_remote_fault_reraises(bed):
    gos = bed.gos("gos-1", "r0/c0/m0/s0")
    server_lr = _create_object(bed, gos, "client_server", role="server")
    runtime = bed.runtime("client-1", "r0/c0/m0/s1")

    def use():
        lr = yield from runtime.bind(server_lr.oid)
        try:
            yield from lr.invoke("put", {"key": "k"})  # missing 'value'
        except Exception as exc:  # noqa: BLE001
            return type(exc).__name__

    assert bed.run(use(), host=runtime.host) == "RemoteInvocationError"


def test_a_remote_answering_no_result_is_a_replication_error(bed):
    gos = bed.gos("gos-1", "r0/c0/m0/s0")
    server_lr = _create_object(bed, gos, "client_server", role="server")
    runtime = bed.runtime("client-1", "r0/c0/m0/s1")

    def answer_ack(address, message):
        return {"type": "ack"}
        yield  # a generator, like the send it stands in for

    def use():
        lr = yield from runtime.bind(server_lr.oid)
        lr.replication._send = answer_ack
        try:
            yield from lr.invoke("get", {"key": "k"})
        except Exception as exc:  # noqa: BLE001
            return str(exc)

    assert bed.run(use(), host=runtime.host) == "expected result, got 'ack'"


@pytest.mark.parametrize("bind", [
    lambda: ClientServerClient([]),
    lambda: MasterSlaveClient([]),
    lambda: CachingClient([], ttl=1.0),
    lambda: PROTOCOLS["master_slave"]["roles"]["slave"](None),
], ids=["client_server", "master_slave", "cache", "slave"])
def test_a_binding_without_the_address_it_needs_is_refused(bind):
    with pytest.raises(ReplicationError):
        bind()


def test_client_server_counts_each_side_of_an_invocation(bed):
    gos = bed.gos("gos-1", "r0/c0/m0/s0")
    server_lr = _create_object(bed, gos, "client_server", role="server")
    runtime = bed.runtime("client-1", "r0/c0/m0/s1")

    def use():
        lr = yield from runtime.bind(server_lr.oid)
        for key in ("a", "b"):
            yield from lr.invoke("put", {"key": key, "value": "v"})
        yield from lr.invoke("get", {"key": "a"})
        return lr.replication.writes_forwarded

    assert bed.run(use(), host=runtime.host) == 2
    server = server_lr.replication
    assert (server.writes_local, server.reads_local) == (2, 1)


def test_a_join_answered_without_state_fails_the_slave(bed, monkeypatch):
    from repro.core.replication.master_slave import MasterSlaveSlave

    def answer_ack(self, address, message):
        return {"type": "ack"}
        yield  # a generator, like the send it stands in for

    gos = bed.gos("gos-1", "r0/c0/m0/s0")
    master_lr = _create_object(bed, gos, "master_slave", role="master")
    monkeypatch.setattr(MasterSlaveSlave, "_send", answer_ack)
    with pytest.raises(ReplicationError, match="join did not return state"):
        _add_replica(bed, bed.gos("gos-2", "r0/c0/m0/s1"), master_lr.oid,
                     master_lr.contact_address, "master_slave", "slave")


def test_undeclared_method_rejected_client_side(bed):
    gos = bed.gos("gos-1", "r0/c0/m0/s0")
    server_lr = _create_object(bed, gos, "client_server", role="server")
    runtime = bed.runtime("client-1", "r0/c0/m0/s1")

    def use():
        lr = yield from runtime.bind(server_lr.oid)
        try:
            yield from lr.invoke("not_a_method")
        except Exception as exc:  # noqa: BLE001
            return type(exc).__name__

    assert bed.run(use(), host=runtime.host) == "IdlError"


# -- master/slave -----------------------------------------------------------


def _master_slave_pair(bed):
    master_gos = bed.gos("gos-master", "r0/c0/m0/s0")
    slave_gos = bed.gos("gos-slave", "r1/c0/m0/s0")
    master_lr = _create_object(bed, master_gos, "master_slave", role="master")
    slave_lr = _add_replica(bed, slave_gos, master_lr.oid,
                            master_lr.contact_address, "master_slave",
                            "slave")
    return master_gos, slave_gos, master_lr, slave_lr


def test_slave_join_transfers_state(bed):
    master_gos = bed.gos("gos-master", "r0/c0/m0/s0")
    master_lr = _create_object(bed, master_gos, "master_slave", role="master")
    master_lr.semantics.data["preexisting"] = "yes"
    slave_gos = bed.gos("gos-slave", "r1/c0/m0/s0")
    slave_lr = _add_replica(bed, slave_gos, master_lr.oid,
                            master_lr.contact_address, "master_slave",
                            "slave")
    assert slave_lr.semantics.data == {"preexisting": "yes"}
    assert master_lr.replication.slaves  # the slave joined


def test_write_at_master_propagates_to_slave(bed):
    _mg, _sg, master_lr, slave_lr = _master_slave_pair(bed)
    runtime = bed.runtime("client-1", "r0/c0/m0/s1")

    def write():
        lr = yield from runtime.bind(master_lr.oid)
        yield from lr.invoke("put", {"key": "tetex", "value": "3.0"})

    bed.run(write(), host=runtime.host)
    bed.world.run(until=bed.world.now + 10)  # let the async push land
    assert slave_lr.semantics.data == {"tetex": "3.0"}
    assert slave_lr.replication.version == 1


def test_client_near_slave_reads_locally_writes_to_master(bed):
    _mg, _sg, master_lr, slave_lr = _master_slave_pair(bed)
    # Client in the slave's region: GLS (fake, sorted) binds it there.
    bed.gls.sort_site = bed.world.topology.site("r1/c0/m0/s1")
    runtime = bed.runtime("client-1", "r1/c0/m0/s1")

    def use():
        lr = yield from runtime.bind(master_lr.oid)
        yield from lr.invoke("put", {"key": "k", "value": "v"})
        value = yield from lr.invoke("get", {"key": "k"})
        return lr.replication.bound.role, value

    bound_role, value = bed.run(use(), host=runtime.host)
    assert bound_role == "slave"
    # The write went to the master (the authoritative copy)...
    assert master_lr.semantics.data == {"k": "v"}
    # ...and the read was served by the bound replica.  Depending on
    # push timing the slave may or may not have caught up yet — both
    # outcomes are legal for asynchronous master/slave.
    assert value in ("v", None)
    assert master_lr.replication.writes_local == 1
    assert slave_lr.replication.reads_local == 1


def test_client_near_master_reads_there_without_a_write(bed):
    _mg, _sg, master_lr, _slave_lr = _master_slave_pair(bed)
    bed.gls.sort_site = bed.world.topology.site("r0/c0/m0/s1")
    runtime = bed.runtime("client-1", "r0/c0/m0/s1")

    def use():
        lr = yield from runtime.bind(master_lr.oid)
        yield from lr.invoke("put", {"key": "k", "value": "v"})
        value = yield from lr.invoke("get", {"key": "k"})
        assert lr.replication.writes_forwarded == 1
        return lr.replication.bound.role, value

    assert bed.run(use(), host=runtime.host) == ("master", "v")
    replication = master_lr.replication
    assert (replication.version, replication.reads_local) == (1, 1)


def test_slave_forwards_writes_when_master_unknown(bed):
    _mg, _sg, master_lr, slave_lr = _master_slave_pair(bed)
    # Strip the master CA from the GLS answer: client only sees the slave.
    wires = bed.gls.records[master_lr.oid.hex]
    bed.gls.records[master_lr.oid.hex] = [
        w for w in wires if w["role"] == "slave"]
    runtime = bed.runtime("client-1", "r1/c0/m0/s1")

    def use():
        lr = yield from runtime.bind(master_lr.oid)
        yield from lr.invoke("put", {"key": "via-slave", "value": "1"})

    bed.run(use(), host=runtime.host)
    assert master_lr.semantics.data == {"via-slave": "1"}
    assert slave_lr.replication.writes_forwarded >= 1


def test_reads_fail_over_to_surviving_replica(bed):
    # The bound (nearest) replica dies mid-session; reads are
    # idempotent, so the client proxy re-pins to the next contact
    # address instead of surfacing a transport error.
    _mg, slave_gos, master_lr, slave_lr = _master_slave_pair(bed)
    bed.gls.sort_site = bed.world.topology.site("r1/c0/m0/s1")
    runtime = bed.runtime("client-1", "r1/c0/m0/s1")

    def seed():
        lr = yield from runtime.bind(master_lr.oid)
        yield from lr.invoke("put", {"key": "k", "value": "v"})
        return lr

    lr = bed.run(seed(), host=runtime.host)
    assert lr.replication.bound.role == "slave"
    bed.world.run(until=bed.world.now + 10)  # let the async push land
    slave_gos.host.crash()

    def read():
        value = yield from lr.invoke("get", {"key": "k"})
        return value, lr.replication.bound.role

    value, bound_role = bed.run(read(), host=runtime.host)
    assert value == "v"
    assert bound_role == "master"
    assert lr.replication.read_failovers == 1


# -- caching -----------------------------------------------------------------


def test_cache_serves_fresh_reads_locally(bed):
    gos = bed.gos("gos-1", "r0/c0/m0/s0")
    server_lr = _create_object(bed, gos, "client_server", role="server")
    server_lr.semantics.data["cached"] = "value"
    runtime = bed.runtime("client-1", "r1/c0/m0/s0")

    def use():
        lr = yield from runtime.bind(server_lr.oid, cache_ttl=60.0)
        first = yield from lr.invoke("get", {"key": "cached"})
        # Within the TTL these execute against the local copy.
        for _ in range(10):
            yield from lr.invoke("get", {"key": "cached"})
        return first, lr.replication.pulls, lr.replication.reads_local

    first, pulls, local_reads = bed.run(use(), host=runtime.host)
    assert first == "value"
    assert pulls == 1
    assert local_reads == 10


def test_cache_revalidates_after_ttl(bed):
    gos = bed.gos("gos-1", "r0/c0/m0/s0")
    server_lr = _create_object(bed, gos, "client_server", role="server")
    runtime = bed.runtime("client-1", "r1/c0/m0/s0")

    def use():
        lr = yield from runtime.bind(server_lr.oid, cache_ttl=5.0)
        yield from lr.invoke("size")
        for _ in range(2):
            yield bed.world.sim.timeout(10.0)  # TTL expires
            yield from lr.invoke("size")
        return lr.replication.pulls, lr.replication.revalidations

    pulls, revalidations = bed.run(use(), host=runtime.host)
    assert pulls == 3
    # Nothing changed server-side, so the later pulls were answered
    # "fresh" without a state transfer.
    assert revalidations == 2


def test_a_cache_is_fresh_up_to_and_at_its_ttl():
    cache = CachingClient([SimpleNamespace(role="server")], ttl=1.0)
    cache.lr = SimpleNamespace(host=SimpleNamespace(
        sim=SimpleNamespace(now=5.0)))
    cache.fetched_at = 4.0
    assert cache.is_fresh()
    cache.fetched_at = 3.5
    assert not cache.is_fresh()


def test_cache_write_invalidates_and_next_read_sees_new_state(bed):
    gos = bed.gos("gos-1", "r0/c0/m0/s0")
    server_lr = _create_object(bed, gos, "client_server", role="server")
    runtime = bed.runtime("client-1", "r0/c1/m0/s0")

    def use():
        lr = yield from runtime.bind(server_lr.oid, cache_ttl=1000.0)
        yield from lr.invoke("size")  # warm the cache
        yield from lr.invoke("put", {"key": "new", "value": "x"})
        assert lr.replication.writes_forwarded == 1
        value = yield from lr.invoke("get", {"key": "new"})
        return value

    assert bed.run(use(), host=runtime.host) == "x"
    assert server_lr.semantics.data == {"new": "x"}


def test_cache_against_master_slave_pulls_from_nearest(bed):
    _mg, _sg, master_lr, slave_lr = _master_slave_pair(bed)
    bed.gls.sort_site = bed.world.topology.site("r1/c0/m0/s1")
    runtime = bed.runtime("client-1", "r1/c0/m0/s1")

    def use():
        lr = yield from runtime.bind(master_lr.oid, cache_ttl=60.0)
        yield from lr.invoke("size")
        return lr.replication.bound.role

    assert bed.run(use(), host=runtime.host) == "slave"


# -- the shared-channel model -------------------------------------------------
#
# All representatives of one address space reach a peer over ONE FIFO
# channel (the address space's ChannelPool), where each used to have a
# connection of its own.  That changes the channel model the protocols
# run over, so it is tested, not assumed: replicas converge, and no
# update is applied twice or out of version order.


def _watch_applied(lr):
    """Log what ``lr`` is pushed (``received``) and every version it
    moves to (``applied``)."""
    replication = lr.replication
    log = SimpleNamespace(received=[], applied=[])
    handle = replication.handle_message

    def watching(message, ctx):
        if message["type"] == "state_push":
            log.received.append(message["version"])
        before = replication.version
        reply = yield from handle(message, ctx)
        if replication.version != before:
            log.applied.append(replication.version)
        return reply

    replication.handle_message = watching
    return log


def _strictly_increasing(versions):
    return all(a < b for a, b in zip(versions, versions[1:]))


def test_all_protocols_share_one_channel_per_peer(bed):
    """One client address space bound to a client/server, a
    master/slave and a cached object whose replicas sit on the same
    two object servers: every message between two address spaces
    rides their one channel."""
    home = bed.gos("gos-home", "r0/c0/m0/s0")
    away = bed.gos("gos-away", "r1/c0/m0/s0")
    plain = _create_object(bed, home, "client_server", role="server")
    cached = _create_object(bed, home, "client_server", role="server")
    master = _create_object(bed, home, "master_slave", role="master")
    slave = _add_replica(bed, away, master.oid, master.contact_address,
                         "master_slave", "slave")
    slave_log = _watch_applied(slave)
    runtime = bed.runtime("client-1", "r0/c0/m0/s1")
    rounds = 6

    def writer(server_lr, method, args_for, cache_ttl=None):
        lr = yield from runtime.bind(server_lr.oid, cache_ttl=cache_ttl)
        for round_ in range(rounds):
            yield from lr.invoke(method, args_for(round_))
        return lr

    def put(round_):
        return {"key": "k%d" % round_, "value": str(round_)}

    writers = [
        runtime.host.spawn(writer(plain, "put", put)),
        runtime.host.spawn(writer(cached, "put", put, cache_ttl=60.0)),
        runtime.host.spawn(writer(master, "put", put)),
    ]
    bed.world.run()
    assert all(proc.value for proc in writers)   # each bound, no failure
    expected = {"k%d" % r: str(r) for r in range(rounds)}
    assert plain.semantics.data == expected
    assert cached.semantics.data == expected
    assert master.semantics.data == slave.semantics.data == expected
    assert slave_log.applied[-1] == rounds
    assert _strictly_increasing(slave_log.applied)

    def cached_read():
        lr = yield from runtime.bind(cached.oid, cache_ttl=60.0)
        keys = yield from lr.invoke("keys")
        return keys

    assert bed.run(cached_read(), host=runtime.host) == sorted(expected)
    # client -> home; home -> away (pushes); away -> home (joins).
    assert [pool.opens for pool in (runtime.pool, home.pool, away.pool)] \
        == [1, 1, 1]


def _two_masters_one_slave_server(bed, protocol, slave_role, impl):
    masters = bed.gos("gos-masters", "r0/c0/m0/s0")
    slaves = bed.gos("gos-slaves", "r1/c0/m0/s0")
    pairs = []
    for _ in range(2):
        master = _create_object(bed, masters, protocol, role="master",
                                impl=impl)
        copy = _add_replica(bed, slaves, master.oid, master.contact_address,
                            protocol, slave_role, impl=impl)
        pairs.append((master, copy, _watch_applied(copy)))
    return masters, slaves, pairs


def _interleaved_writes(bed, masters, pairs, method, args_for, writes,
                        gap=0.01, during=None):
    """Writes to both masters from a client beside them, strictly
    alternating, ``gap`` apart — each spawns an asynchronous push to
    the same slave server."""
    writer = bed.runtime("writer", "r0/c0/m0/s1")

    def drive():
        bound = []
        for master, _copy, _log in pairs:
            bound.append((yield from writer.bind(master.oid)))
        for index in range(writes):
            for lr in bound:
                yield from lr.invoke(method, args_for(index))
            yield bed.world.sim.timeout(gap)
            if during is not None:
                during()

    bed.run(drive(), host=writer.host)
    bed.world.run()


def test_interleaved_pushes_from_two_masters_share_a_channel(bed):
    masters, slaves, pairs = _two_masters_one_slave_server(
        bed, "master_slave", "slave", "test.kv")
    writes = 8
    _interleaved_writes(
        bed, masters, pairs, "put",
        lambda index: {"key": "k", "value": str(index)}, writes)
    assert masters.pool.opens == 1       # both masters, one connection
    for master, copy, log in pairs:
        assert master.replication.push_failures == 0
        assert copy.semantics.data == master.semantics.data \
            == {"k": str(writes - 1)}
        # Each version once, in order.
        assert log.received == log.applied == list(range(1, writes + 1))


@pytest.mark.parametrize("protocol, slave_role, impl, method, args_for", [
    ("master_slave", "slave", "test.kv", "put",
     lambda index: {"key": "k%d" % index, "value": "v"}),
])
def test_shared_channel_dying_mid_push(bed, protocol, slave_role, impl,
                                       method, args_for):
    """The one connection both masters push over is lost while pushes
    are in flight: some were applied and only their acknowledgements
    died, some never arrived.  Each is sent again, once, over the one
    channel the pool reopens (in a new order: the first push after the
    loss leads the reopen).  The copies drop what they already have
    and apply the rest in version order."""
    masters, slaves, pairs = _two_masters_one_slave_server(
        bed, protocol, slave_role, impl)
    writes = 10
    cut_at = []

    def cut():
        applied = len(pairs[0][2].applied)
        if applied >= 3 and not cut_at:
            (channel,) = masters.pool._channels.values()
            # In flight: pushes applied but not yet acknowledged, and
            # pushes still on their way.
            assert len(channel._pending) > 2 * (applied - 1)
            cut_at.append(applied)
            channel.conn._break()        # what a crash or partition does

    _interleaved_writes(bed, masters, pairs, method, args_for, writes,
                        gap=0.05, during=cut)
    assert cut_at and masters.pool.opens == 2    # reopened exactly once
    for master, copy, log in pairs:
        assert master.replication.push_failures == 0
        assert copy.semantics.snapshot_state() \
            == master.semantics.snapshot_state()
        assert len(log.received) > writes        # some came twice ...
        assert len(set(log.received)) == writes
        assert log.applied[-1] == writes         # ... none applied twice
        assert _strictly_increasing(log.applied)
