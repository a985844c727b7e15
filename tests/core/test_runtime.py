"""Unit tests for the run-time system and bind()."""

import pytest

from repro.core.ids import ContactAddress
from repro.core.runtime import BindError
from repro.sim.stable import DISK_WRITE_LATENCY
from tests.util import GlobeBed, oid_from_seed


@pytest.fixture
def bed():
    return GlobeBed()


def _object_on(bed, gos_name="gos-1", site="r0/c0/m0/s0"):
    gos = bed.gos(gos_name, site)

    def create():
        lr = yield from gos.create_local_replica(
            None, "test.kv", "client_server", "server")
        return lr

    return bed.run(create())


def test_bind_unknown_oid_fails(bed):
    runtime = bed.runtime("client-1", "r0/c0/m0/s0")

    def use():
        try:
            yield from runtime.bind(oid_from_seed("nothing"))
        except BindError:
            return "no address"

    assert bed.run(use(), host=runtime.host) == "no address"


def test_bind_caches_representative(bed):
    server_lr = _object_on(bed)
    runtime = bed.runtime("client-1", "r0/c0/m0/s1")

    def use():
        first = yield from runtime.bind(server_lr.oid)
        second = yield from runtime.bind(server_lr.oid)
        return first is second

    assert bed.run(use(), host=runtime.host) is True
    assert runtime.binds_performed == 1


def test_rebind_with_refresh_builds_new_representative(bed):
    server_lr = _object_on(bed)
    runtime = bed.runtime("client-1", "r0/c0/m0/s1")

    def use():
        first = yield from runtime.bind(server_lr.oid)
        second = yield from runtime.bind(server_lr.oid, refresh=True)
        return first is second

    assert bed.run(use(), host=runtime.host) is False
    assert runtime.binds_performed == 2


def test_bind_unknown_protocol_fails(bed):
    oid = oid_from_seed("weird")
    wire = ContactAddress("nowhere", 1, "exotic_protocol",
                          impl_id="test.kv").to_wire()
    bed.run(bed.gls.register(oid.hex, wire))
    runtime = bed.runtime("client-1", "r0/c0/m0/s0")

    def use():
        try:
            yield from runtime.bind(oid)
        except BindError as exc:
            return str(exc)

    assert "exotic_protocol" in bed.run(use(), host=runtime.host)


def test_unbind_detaches(bed):
    server_lr = _object_on(bed)
    runtime = bed.runtime("client-1", "r0/c0/m0/s1")

    def use():
        yield from runtime.bind(server_lr.oid)
        runtime.unbind(server_lr.oid)
        return len(runtime.bound)

    assert bed.run(use(), host=runtime.host) == 0


def test_bind_loads_implementation_once_per_host(bed):
    server_lr = _object_on(bed)
    runtime = bed.runtime("client-1", "r1/c0/m0/s0")
    repo_host = bed.world.host("repo-1", "r0/c0/m0/s0")
    bed.repository.add_repository_host(repo_host)

    def use():
        yield from runtime.bind(server_lr.oid)
        yield from runtime.bind(server_lr.oid, refresh=True)
        return bed.repository.downloads

    # One download despite two binds: the implementation cache.
    # (The GOS itself loaded without cost: no repo host existed yet.)
    assert bed.run(use(), host=runtime.host) == 1


# -- one channel per peer per address space ---------------------------------


def _objects_on(bed, gos, count, protocol="client_server", role="server"):
    def create():
        made = []
        for _ in range(count):
            lr = yield from gos.create_local_replica(
                None, "test.kv", protocol, role)
            made.append(lr)
        return made

    return bed.run(create())


def test_rebind_with_unchanged_gls_answer_opens_no_connection(bed):
    """Bindings are soft state: a rebind composes a new representative,
    but its peer is one this address space already has a channel to.
    The rebind and the next invocation cost the three kernel events of
    one channel call — no SYN, no FIN, no accept, no process start."""
    server_lr = _object_on(bed)
    gos_host = bed.world.hosts["gos-1"]
    runtime = bed.runtime("client-1", "r0/c0/m0/s1")
    sim = bed.world.sim

    def use():
        first = yield from runtime.bind(server_lr.oid)
        yield from first.invoke("put", {"key": "k", "value": "v"})
        yield sim.timeout(DISK_WRITE_LATENCY)  # the put's checkpoint lands
        before = (sim.events_processed, sim.timers_scheduled,
                  len(gos_host._connections), len(gos_host._processes))
        second = yield from runtime.bind(server_lr.oid, refresh=True)
        value = yield from second.invoke("get", {"key": "k"})
        after = (sim.events_processed, sim.timers_scheduled,
                 len(gos_host._connections), len(gos_host._processes))
        return first is second, value, before, after

    same, value, before, after = bed.run(use(), host=runtime.host)
    assert (same, value) == (False, "v")
    assert after[0] - before[0] == 3 and after[1] - before[1] == 2
    assert after[2:] == before[2:]
    assert (runtime.pool.opens, len(runtime.pool._channels)) == (1, 1)
    assert runtime.binds_performed == 2


def test_concurrent_binds_to_one_server_share_one_handshake(bed):
    gos = bed.gos("gos-1", "r0/c0/m0/s0")
    objects = _objects_on(bed, gos, 3)
    runtime = bed.runtime("client-1", "r1/c0/m0/s0")

    def use(index, server_lr):
        lr = yield from runtime.bind(server_lr.oid)
        yield from lr.invoke("put", {"key": "who", "value": str(index)})
        value = yield from lr.invoke("get", {"key": "who"})
        return value

    users = [runtime.host.spawn(use(index, server_lr))
             for index, server_lr in enumerate(objects)]
    bed.world.run()
    assert [user.value for user in users] == ["0", "1", "2"]
    assert runtime.pool.opens == 1
    assert len(runtime.host._connections) == 1
    assert len(bed.world.hosts["gos-1"]._connections) == 1


def test_runtimes_with_different_credentials_never_share_a_channel(bed):
    """A pool opens every channel through its one wrapper; two address
    spaces on one machine keep their authenticated identities apart."""
    import random

    from repro.core.runtime import Runtime
    from repro.security.certs import CertificateAuthority, Credentials
    from repro.security.tls import client_wrapper, server_factory

    rng = random.Random(11)
    ca = CertificateAuthority("test-ca", rng)
    seen = []

    def authorizer(ctx, operation, oid_hex):
        seen.append((ctx.peer_principal, oid_hex))
        return True

    gos = bed.gos("gos-1", "r0/c0/m0/s0", authorizer=authorizer,
                  channel_factory=server_factory(
                      Credentials.issue_for("gos-1", ca, rng),
                      client_auth="optional"))
    for_alice, for_bob = _objects_on(bed, gos, 2)
    shared_machine = bed.world.host("workstation", "r0/c0/m0/s1")
    runtimes = {
        name: Runtime(bed.world, shared_machine, bed.gls, bed.repository,
                      channel_wrapper=client_wrapper(
                          credentials=Credentials.issue_for(name, ca, rng)))
        for name in ("alice", "bob")}

    def write(name, server_lr):
        lr = yield from runtimes[name].bind(server_lr.oid)
        for round_ in range(2):
            yield from lr.invoke("put", {"key": name, "value": str(round_)})

    writers = [shared_machine.spawn(write("alice", for_alice)),
               shared_machine.spawn(write("bob", for_bob))]
    bed.world.run()
    assert [writer.value for writer in writers] == [None, None]
    assert sorted(seen) == sorted(
        [("alice", for_alice.oid.hex)] * 2 + [("bob", for_bob.oid.hex)] * 2)
    assert [runtimes[name].pool.opens for name in ("alice", "bob")] == [1, 1]
    assert len(gos.host._connections) == 2


def test_detach_leaves_other_representatives_calls_in_flight(bed):
    """Neither unbinding a sibling nor rebinding the object itself
    touches the connection a call is waiting on."""
    gos = bed.gos("gos-1", "r0/c0/m0/s0")
    busy, sibling = _objects_on(bed, gos, 2)
    runtime = bed.runtime("client-1", "r1/c0/m0/s0")     # a WAN away

    def use():
        lr = yield from runtime.bind(busy.oid)
        yield from runtime.bind(sibling.oid)
        yield from lr.invoke("put", {"key": "k", "value": "v"})
        in_flight = runtime.host.spawn(lr.invoke("get", {"key": "k"}))
        yield bed.world.sim.timeout(1e-4)                # request is away
        runtime.unbind(sibling.oid)
        yield from runtime.bind(busy.oid, refresh=True)  # detaches `lr`
        value = yield in_flight
        return value

    assert bed.run(use(), host=runtime.host) == "v"
    assert (runtime.pool.opens, len(runtime.pool._channels)) == (1, 1)


def test_representatives_sharing_a_channel_do_not_block_each_other(bed):
    """Two representatives' calls travel one channel to one object
    server.  The first is a write the slave must forward to a master
    a WAN away; the second, sent right behind it, is a read served on
    the spot — and answered first."""
    master_gos = bed.gos("gos-master", "r1/c0/m0/s0")
    slave_gos = bed.gos("gos-slave", "r0/c0/m0/s0")
    (master_lr,) = _objects_on(bed, master_gos, 1, "master_slave", "master")

    def add_slave():
        lr = yield from slave_gos.create_local_replica(
            master_lr.oid, "test.kv", "master_slave", "slave",
            master=master_lr.contact_address)
        return lr

    bed.run(add_slave())
    # The client sees only the slave, so its writes go through it.
    bed.gls.records[master_lr.oid.hex] = [
        wire for wire in bed.gls.records[master_lr.oid.hex]
        if wire["role"] == "slave"]
    (local_lr,) = _objects_on(bed, slave_gos, 1)
    runtime = bed.runtime("client-1", "r0/c0/m0/s1")
    finished = []

    def one(lr, method, args):
        yield from lr.invoke(method, args)
        finished.append(method)

    def use():
        forwarded = yield from runtime.bind(master_lr.oid)
        local = yield from runtime.bind(local_lr.oid)
        yield from local.invoke("size")                  # channel is open
        slow = runtime.host.spawn(
            one(forwarded, "put", {"key": "k", "value": "v"}))
        fast = runtime.host.spawn(one(local, "size", None))
        yield slow
        yield fast

    bed.run(use(), host=runtime.host)
    assert finished == ["size", "put"]
    assert runtime.pool.opens == 1


def test_a_binding_is_reused_until_it_is_older_than_its_ttl(bed):
    server_lr = _object_on(bed)
    runtime = bed.runtime("client-1", "r0/c0/m0/s1")
    runtime.binding_ttl = 5.0

    def use():
        first = yield from runtime.bind(server_lr.oid)
        yield bed.world.sim.timeout(5.0)
        at_ttl = yield from runtime.bind(server_lr.oid)
        yield bed.world.sim.timeout(0.5)
        past_ttl = yield from runtime.bind(server_lr.oid)
        return at_ttl is first, past_ttl is first

    assert bed.run(use(), host=runtime.host) == (True, False)
