"""Unit tests for control and communication subobjects."""

import pytest

from repro.core.idl import IdlError
from repro.core.marshal import marshal_invocation, unmarshal_result
from repro.core.subobjects import ControlSubobject
from tests.util import GlobeBed, KvStore


# -- control subobject (no network needed) -----------------------------------


def test_execute_runs_semantics_method():
    semantics = KvStore()
    control = ControlSubobject(semantics, KvStore.interface)
    raw = control.execute(marshal_invocation("put", {"key": "k",
                                                     "value": "v"}))
    assert unmarshal_result(raw) is None
    assert semantics.data == {"k": "v"}
    assert control.local_invocations == 1


def test_execute_encodes_faults_in_band():
    control = ControlSubobject(KvStore(), KvStore.interface)
    raw = control.execute(marshal_invocation("put", {"key": "k"}))
    result = unmarshal_result(raw)
    assert result["__fault__"]
    assert result["kind"] == "TypeError"


def test_execute_rejects_undeclared_methods():
    control = ControlSubobject(KvStore(), KvStore.interface)
    with pytest.raises(IdlError):
        control.execute(marshal_invocation("snapshot_state", {}))


def test_execute_without_semantics_rejected():
    control = ControlSubobject(None, KvStore.interface)
    with pytest.raises(IdlError):
        control.execute(marshal_invocation("get", {"key": "k"}))


# -- communication subobject (channel management) ------------------------------


def test_comm_reuses_channels_per_endpoint():
    bed = GlobeBed()
    gos = bed.gos("gos-1", "r0/c0/m0/s0")

    def create():
        lr = yield from gos.create_local_replica(
            None, "test.kv", "client_server", "server")
        return lr

    server_lr = bed.run(create())
    runtime = bed.runtime("client-1", "r0/c0/m0/s1")

    def use():
        lr = yield from runtime.bind(server_lr.oid)
        for i in range(5):
            yield from lr.invoke("put", {"key": "k%d" % i, "value": "v"})
        return len(runtime.pool._channels), lr.comm.messages_sent

    channels, messages = bed.run(use(), host=runtime.host)
    assert channels == 1  # one multiplexed channel, five invocations
    assert messages == 5


def test_comm_reconnects_after_peer_restart():
    bed = GlobeBed()
    gos = bed.gos("gos-1", "r0/c0/m0/s0")

    def create():
        lr = yield from gos.create_local_replica(
            None, "test.kv", "client_server", "server")
        return lr

    server_lr = bed.run(create())
    runtime = bed.runtime("client-1", "r0/c0/m0/s1")

    def phase_one():
        lr = yield from runtime.bind(server_lr.oid)
        yield from lr.invoke("put", {"key": "before", "value": "1"})
        return lr

    lr = bed.run(phase_one(), host=runtime.host)
    bed.run(gos._checkpoint_one(server_lr.oid.hex))  # persist the put
    bed.restart(gos)

    def phase_two():
        # Same bound representative: the comm subobject notices the
        # dead channel and reconnects transparently.
        value = yield from lr.invoke("get", {"key": "before"})
        return value

    assert bed.run(phase_two(), host=runtime.host) == "1"


def test_comm_unknown_host_rejected():
    from repro.core.ids import ContactAddress
    from repro.sim.transport import TransportError

    bed = GlobeBed()
    gos = bed.gos("gos-1", "r0/c0/m0/s0")

    def create():
        lr = yield from gos.create_local_replica(
            None, "test.kv", "client_server", "server")
        return lr

    server_lr = bed.run(create())

    def attempt():
        ghost = ContactAddress("no-such-host", 7100, "client_server")
        try:
            yield from server_lr.comm.send_dso_message(
                ghost, server_lr.oid, {"type": "pull"})
        except TransportError:
            return "rejected"

    assert bed.run(attempt(), host=gos.host) == "rejected"
