"""Integration tests for TLS-style channels over simulated connections."""

import random

import pytest

from repro.security.acl import Role, role_attribute
from repro.security.certs import CertificateAuthority, Credentials
from repro.security.tls import (HandshakeError, SecurityError,
                                client_wrapper, server_factory)
from repro.sim.topology import Topology
from repro.sim.transport import ConnectionClosed
from repro.sim.world import World


@pytest.fixture(scope="module")
def pki():
    rng = random.Random(77)
    ca = CertificateAuthority("gdn-ca", rng)
    return {
        "ca": ca,
        "server": Credentials.issue_for("gos-1", ca, rng,
                                        role_attribute(Role.GDN_HOST)),
        "client": Credentials.issue_for("modtool-1", ca, rng,
                                        role_attribute(Role.MODERATOR)),
        "browser": Credentials.issue_for("browser-trust", ca, rng),
        "rogue": Credentials.issue_for(
            "gos-1", CertificateAuthority("rogue-ca", random.Random(5)),
            random.Random(6)),
    }


@pytest.fixture
def world():
    return World(topology=Topology.balanced(2, 2, 2, 2), seed=13)


def _secure_pair(world, pki, require_client_cert=False, encryption=True,
                 client_credentials="client"):
    """Handshake a channel pair; returns (client_channel, server_channel)."""
    a = world.host("client-host", "r0/c0/m0/s0")
    b = world.host("server-host", "r0/c1/m0/s0")
    listener = b.listen(443)
    factory = server_factory(pki["server"],
                             require_client_cert=require_client_cert,
                             encryption=encryption)
    result = {}

    def server():
        conn = yield listener.accept()
        channel = yield from factory(conn)
        result["server"] = channel

    def client():
        conn = yield from a.connect(b, 443)
        wrap = client_wrapper(credentials=pki.get(client_credentials),
                              trust=pki["browser"], encryption=encryption)
        channel = yield from wrap(conn)
        result["client"] = channel

    b.spawn(server())
    proc = a.spawn(client())
    world.run_until(proc, limit=1e6)
    return result["client"], result["server"]


def test_one_way_auth_identities(world, pki):
    client_channel, server_channel = _secure_pair(world, pki,
                                                  client_credentials=None)
    # The server authenticated itself to the client...
    assert client_channel.peer_principal == "gos-1"
    # ...but the anonymous client has no verified identity.
    assert server_channel.peer_principal is None


def test_two_way_auth_identities(world, pki):
    client_channel, server_channel = _secure_pair(world, pki,
                                                  require_client_cert=True)
    assert client_channel.peer_principal == "gos-1"
    assert server_channel.peer_principal == "modtool-1"


def test_data_flows_both_ways(world, pki):
    client_channel, server_channel = _secure_pair(world, pki)
    transcript = []

    def server_side():
        message = yield server_channel.recv()
        transcript.append(("server", message))
        server_channel.send({"reply": message["n"] + 1})

    def client_side():
        client_channel.send({"n": 41})
        reply = yield client_channel.recv()
        transcript.append(("client", reply))

    world.get_host("server-host").spawn(server_side())
    proc = world.get_host("client-host").spawn(client_side())
    world.run_until(proc, limit=1e6)
    assert ("server", {"n": 41}) in transcript
    assert ("client", {"reply": 42}) in transcript


def test_rogue_server_certificate_rejected(world, pki):
    a = world.host("client-host", "r0/c0/m0/s0")
    b = world.host("mitm-host", "r0/c0/m0/s1")
    listener = b.listen(443)
    factory = server_factory(pki["rogue"])  # signed by an untrusted CA

    def server():
        try:
            conn = yield listener.accept()
            yield from factory(conn)
        except (HandshakeError, ConnectionClosed):
            pass

    def client():
        conn = yield from a.connect(b, 443)
        wrap = client_wrapper(credentials=pki["client"])
        try:
            yield from wrap(conn)
        except HandshakeError as exc:
            return "rejected: %s" % exc

    b.spawn(server())
    proc = a.spawn(client())
    outcome = world.run_until(proc, limit=1e6)
    assert outcome.startswith("rejected")
    assert "untrusted" in outcome


def test_server_identity_pinning(world, pki):
    a = world.host("client-host", "r0/c0/m0/s0")
    b = world.host("server-host", "r0/c0/m0/s1")
    listener = b.listen(443)
    factory = server_factory(pki["server"])  # legitimate "gos-1"

    def server():
        try:
            conn = yield listener.accept()
            yield from factory(conn)
        except (HandshakeError, ConnectionClosed):
            pass

    def client():
        conn = yield from a.connect(b, 443)
        wrap = client_wrapper(credentials=pki["client"],
                              expected_server="gos-2")
        try:
            yield from wrap(conn)
        except HandshakeError:
            return "mismatch detected"

    b.spawn(server())
    proc = a.spawn(client())
    assert world.run_until(proc, limit=1e6) == "mismatch detected"


def test_client_without_cert_rejected_in_two_way_mode(world, pki):
    a = world.host("client-host", "r0/c0/m0/s0")
    b = world.host("server-host", "r0/c0/m0/s1")
    listener = b.listen(443)
    factory = server_factory(pki["server"], require_client_cert=True)
    server_outcome = {}

    def server():
        conn = yield listener.accept()
        try:
            yield from factory(conn)
            server_outcome["result"] = "accepted"
        except (HandshakeError, ConnectionClosed):
            # Either side may notice first: the server refuses the
            # missing certificate, or sees the client abort the
            # handshake by closing.
            server_outcome["result"] = "refused"

    def client():
        conn = yield from a.connect(b, 443)
        wrap = client_wrapper(trust=pki["browser"])  # no client cert
        try:
            yield from wrap(conn)
        except HandshakeError:
            return "failed"

    b.spawn(server())
    proc = a.spawn(client())
    assert world.run_until(proc, limit=1e6) == "failed"
    world.run(until=world.now + 5)  # let the server observe the abort
    assert server_outcome["result"] == "refused"


@pytest.mark.parametrize("forged", [
    {"s": 1, "p": {"evil": True}, "m": b"\x00" * 32},
    # Frames whose MAC cannot even be computed: a sequence number
    # that is no 64-bit number, or none at all, and payloads nothing
    # could have marshalled.  Each used to escape the receive pump as
    # OverflowError / AttributeError / MarshalError and end the run.
    {"s": -1, "p": {"evil": True}, "m": b"\x00" * 32},
    {"s": "1", "p": {"evil": True}, "m": b"\x00" * 32},
    {"s": 1, "p": {1: "non-str key"}, "m": b"\x00" * 32},
    {"s": 1, "p": {"evil": object()}, "m": b"\x00" * 32},
], ids=["bad-mac", "negative-seq", "text-seq", "non-str-key",
        "unmarshallable"])
def test_tampered_record_detected(world, pki, forged):
    client_channel, server_channel = _secure_pair(world, pki)

    def attack():
        # Inject a forged frame directly on the underlying connection,
        # bypassing the secure channel (an on-path attacker on the TCP
        # stream), ahead of a genuine record.
        client_channel.conn.send(forged, size=64)
        client_channel.send({"genuine": 1})
        yield world.sim.timeout(0)

    def victim():
        try:
            yield server_channel.recv()
        except SecurityError:
            # The pump survived the forgery and still serves the peer.
            following = yield server_channel.recv()
            return ("tamper detected", following)

    world.get_host("client-host").spawn(attack())
    proc = world.get_host("server-host").spawn(victim())
    assert world.run_until(proc, limit=1e6) == ("tamper detected",
                                                {"genuine": 1})
    assert server_channel.integrity_failures == 1


def test_replayed_record_detected(world, pki):
    client_channel, server_channel = _secure_pair(world, pki)

    def replay():
        client_channel.send({"n": 1})
        first_frame, wire = None, None
        # Capture and re-send the exact frame (sequence number 1).
        # The pump has queued it; emulate the attacker replaying by
        # recomputing the identical frame.
        mac = client_channel._mac(client_channel._send_key, 1, {"n": 1})
        yield world.sim.timeout(1.0)  # let the original arrive
        client_channel.conn.send({"s": 1, "p": {"n": 1}, "m": mac})

    def victim():
        first = yield server_channel.recv()
        try:
            yield server_channel.recv()
        except SecurityError:
            return ("ok", first)

    world.get_host("client-host").spawn(replay())
    proc = world.get_host("server-host").spawn(victim())
    outcome = world.run_until(proc, limit=1e6)
    assert outcome == ("ok", {"n": 1})


def test_encryption_negotiation_and_cost(world, pki):
    """Integrity-only channels beat encrypting channels on CPU time —
    the §6.3 trade-off in miniature."""

    def transfer_time(encryption):
        local_world = World(topology=Topology.balanced(2, 2, 2, 2), seed=13)
        client_channel, server_channel = _secure_pair(
            local_world, pki, encryption=encryption)

        def sender():
            start = local_world.now
            client_channel.send({"data": b"x" * 200_000})
            message = yield server_channel.recv()
            return local_world.now - start

        proc = local_world.get_host("client-host").spawn(sender())
        return local_world.run_until(proc, limit=1e6)

    assert transfer_time(encryption=False) < transfer_time(encryption=True)


def test_channel_close_propagates(world, pki):
    client_channel, server_channel = _secure_pair(world, pki)

    def server_side():
        try:
            yield server_channel.recv()
        except ConnectionClosed:
            return "closed"

    proc = world.get_host("server-host").spawn(server_side())
    client_channel.close()
    assert world.run_until(proc, limit=1e6) == "closed"


def test_forged_record_size_cannot_stall_or_discount_the_pump(world, pki):
    """The carried record size ("w") is not MAC-covered, so the recv
    pump only believes values inside a sane range: a forged petabyte
    declaration must not buy the attacker an unbounded CPU charge on
    the victim (stalling every legitimate record queued behind it),
    and a negative one must not skip the charge."""
    for forged_w in (10**15, -5):
        local_world = World(topology=Topology.balanced(2, 2, 2, 2), seed=13)
        client_channel, server_channel = _secure_pair(local_world, pki)

        def attack():
            client_channel.conn.send({"s": 1, "p": {"evil": True},
                                      "m": b"\x00" * 32, "w": forged_w})
            yield local_world.sim.timeout(0)

        def victim():
            try:
                yield server_channel.recv()
            except SecurityError:
                return local_world.now

        local_world.get_host("client-host").spawn(attack())
        proc = local_world.get_host("server-host").spawn(victim())
        detected_at = local_world.run_until(proc, limit=1e6)
        # Tamper detected after a cost bounded by what actually
        # crossed the wire (the honest walk), not the forged claim.
        assert detected_at < 60.0, "forged w=%r stalled the pump" % forged_w
        assert server_channel.integrity_failures == 1


def test_secure_channel_call_costs_seven_kernel_events(world, pki):
    """An RPC over TLS arms six timers — a CPU charge in each of four
    record-pump passes, two network arrivals — and costs those six
    kernel events plus the caller's reply waiter: every other hand-off
    (send -> send pump, arrival -> receive pump, pump -> receiver ->
    handler / dispatcher) runs in the frame of the timer before it.
    It was nineteen."""
    from repro.sim.rpc import RpcChannel, RpcServer

    a = world.host("client-host", "r0/c0/m0/s0")
    b = world.host("server-host", "r0/c1/m0/s0")
    server = RpcServer(b, 7443, channel_factory=server_factory(
        pki["server"], require_client_cert=True))
    server.register("whoami", lambda ctx, args: ctx.peer_principal)
    server.start()
    calls = 20

    def client():
        channel = yield from RpcChannel.open(
            a, b, 7443,
            channel_wrapper=client_wrapper(credentials=pki["client"]))
        yield from channel.call("whoami", {})
        events = world.sim.events_processed
        timers = world.sim.timers_scheduled
        for _ in range(calls):
            principal = yield from channel.call("whoami", {})
            assert principal == "modtool-1"
        spent = (world.sim.events_processed - events,
                 world.sim.timers_scheduled - timers)
        channel.close()
        return spent

    assert world.run_until(a.spawn(client()), limit=1e6) \
        == (7 * calls, 6 * calls)


def test_receiver_may_close_the_channel_from_inside_the_pump(world, pki):
    # The receive pump hands a verified payload to a parked recv() in
    # its own frame; a receiver that reacts by closing the channel
    # kills the (running) pump that resumed it.
    client_channel, server_channel = _secure_pair(world, pki)

    def sender():
        client_channel.send({"last": True})
        try:
            yield client_channel.recv()
        except ConnectionClosed:
            return "peer hung up"

    def receiver():
        message = yield server_channel.recv()
        server_channel.close()
        assert not any(pump.alive for pump in server_channel._pumps)
        try:
            yield server_channel.recv()
        except ConnectionClosed:
            return message

    proc = world.get_host("client-host").spawn(sender())
    reader = world.get_host("server-host").spawn(receiver())
    assert world.run_until(reader, limit=1e6) == {"last": True}
    assert world.run_until(proc, limit=1e6) == "peer hung up"
    world.run()
    assert not world.get_host("server-host")._processes


def _tls_rpc_server(world, pki, host, client_auth="required"):
    from repro.sim.rpc import RpcServer

    server = RpcServer(host, 7443, channel_factory=server_factory(
        pki["server"], client_auth=client_auth))
    server.register("whoami", lambda ctx, args: ctx.peer_principal)
    server.start()
    world.run()
    return server


def test_served_secure_channels_are_released_at_end_of_stream(world, pki):
    """Regression: a served secure channel was never closed on end of
    stream, so its connection *and* its parked send pump stayed with
    the host — 200 open/call/close cycles took (connections,
    processes) from (5, 8) to (205, 206)."""
    from repro.sim import rpc

    a = world.host("client-host", "r0/c0/m0/s0")
    b = world.host("server-host", "r0/c1/m0/s0")
    _tls_rpc_server(world, pki, b)
    baseline = (len(b._connections), len(b._processes))
    wrapper = client_wrapper(credentials=pki["client"])
    cycles = 1000

    def client():
        for _ in range(cycles):
            principal = yield from rpc.call(a, b, 7443, "whoami", {},
                                            channel_wrapper=wrapper)
            assert principal == "modtool-1"

    world.run_until(a.spawn(client()), limit=1e7)
    world.run()
    assert (len(b._connections), len(b._processes)) == baseline
    assert (len(a._connections), len(a._processes)) == (0, 0)


def test_failed_handshakes_leave_nothing_open_on_either_side(world, pki):
    """A handshake that ends badly — the client does not trust the
    server, has no certificate for a server that demands one, or is
    gone half way — releases the accepted connection and the
    connecting one."""
    from repro.sim import rpc

    a = world.host("client-host", "r0/c0/m0/s0")
    b = world.host("server-host", "r0/c1/m0/s0")
    _tls_rpc_server(world, pki, b)
    baseline = (len(b._connections), len(b._processes))

    def attempt(wrapper):
        try:
            yield from rpc.call(a, b, 7443, "whoami", {},
                                channel_wrapper=wrapper)
        except HandshakeError:
            return "refused"

    def abandon():
        conn = yield from a.connect(b, 7443)
        conn.send({"type": "hello", "nonce": b"\x00" * 16,
                   "encryption": True}, size=48)
        yield conn.recv()                # the server hello
        conn.close()                     # ... and never answer it

    for wrapper in (client_wrapper(credentials=pki["rogue"]),
                    client_wrapper(trust=pki["browser"])):
        assert world.run_until(a.spawn(attempt(wrapper)),
                               limit=1e6) == "refused"
    world.run_until(a.spawn(abandon()), limit=1e6)
    world.run()
    assert (len(b._connections), len(b._processes)) == baseline
    assert (len(a._connections), len(a._processes)) == (0, 0)
