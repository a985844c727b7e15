"""Integration tests for TLS-style channels over simulated connections."""

import random

import pytest

from repro.security.acl import Role, role_attribute
from repro.security.certs import CertificateAuthority, Credentials
from repro.security.tls import (DEFAULT_COSTS, HandshakeError, SecurityError,
                                _mac, client_wrapper, server_factory)
from repro.sim.network import LinkParameters
from repro.sim.serde import HEADER_OVERHEAD
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


def _secure_pair(world, pki, client_auth="none", encryption=True,
                 client_credentials="client"):
    """Handshake a channel pair; returns (client_channel, server_channel)."""
    a = world.host("client-host", "r0/c0/m0/s0")
    b = world.host("server-host", "r0/c1/m0/s0")
    listener = b.listen(443)
    factory = server_factory(pki["server"], client_auth=client_auth,
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
                                                  client_auth="required")
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
    factory = server_factory(pki["server"], client_auth="required")
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
    # could have marshalled.  Each used to escape the receiving end as
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
            # The channel survived the forgery and still serves the peer.
            following = yield server_channel.recv()
            return ("tamper detected", following)

    world.get_host("client-host").spawn(attack())
    proc = world.get_host("server-host").spawn(victim())
    assert world.run_until(proc, limit=1e6) == ("tamper detected",
                                                {"genuine": 1})
    assert server_channel.integrity_failures == 1


def _server_hello(pki, **change):
    """A well-formed server hello, with ``change`` applied (``None``
    drops a field)."""
    hello = {"type": "server-hello", "nonce": b"\x01" * 16,
             "cert": pki["server"].certificate.to_wire(),
             "client_auth": "none", "encryption": True}
    hello.update(change)
    return {key: value for key, value in hello.items() if value is not None}


def _certificate_without(pki, field):
    wire = pki["client"].certificate.to_wire()
    del wire[field]
    return wire


_HELLO = {"type": "hello", "nonce": b"\x00" * 16, "encryption": True}


#: (side under test, what its peer sends, one message per handshake
#: step): every malformed message must fail the handshake with
#: HandshakeError, never escape as AttributeError / KeyError /
#: TypeError.
_MALFORMED = {
    "server-hello-not-a-dict": ("client", lambda pki: ["server-hello"]),
    "server-hello-without-cert": (
        "client", lambda pki: [_server_hello(pki, cert=None)]),
    "server-cert-without-subject": (
        "client", lambda pki: [_server_hello(
            pki, cert=_certificate_without(pki, "subject"))]),
    "server-cert-not-a-dict": (
        "client", lambda pki: [_server_hello(pki, cert="pem")]),
    "server-hello-without-nonce": (
        "client", lambda pki: [_server_hello(pki, nonce=None)]),
    "server-nonce-not-bytes": (
        "client", lambda pki: [_server_hello(pki, nonce=7)]),
    "finished-not-a-dict": (
        "client", lambda pki: [_server_hello(pki), "finished"]),
    "client-hello-not-a-dict": ("server", lambda pki: ["hello"]),
    "client-hello-without-nonce": (
        "server", lambda pki: [{"type": "hello", "encryption": True}]),
    "key-exchange-not-a-dict": (
        "server", lambda pki: [_HELLO, "key-exchange"]),
    "key-exchange-without-premaster": (
        "server", lambda pki: [_HELLO, {"type": "key-exchange"}]),
    "premaster-not-a-number": (
        "server", lambda pki: [_HELLO, {"type": "key-exchange",
                                        "premaster": "secret"}]),
    "client-cert-without-subject": (
        "server", lambda pki: [_HELLO, {
            "type": "key-exchange", "premaster": 5, "signature": 1,
            "cert": _certificate_without(pki, "subject")}]),
    "client-signature-not-a-number": (
        "server", lambda pki: [_HELLO, {
            "type": "key-exchange", "premaster": 5, "signature": "sig",
            "cert": pki["client"].certificate.to_wire()}]),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_handshake_message_fails_the_handshake(world, pki, case):
    side, script = _MALFORMED[case]
    a = world.host("client-host", "r0/c0/m0/s0")
    b = world.host("server-host", "r0/c1/m0/s0")
    listener = b.listen(443)

    def outcome(handshake):
        try:
            yield from handshake
        except Exception as exc:  # noqa: BLE001 - report what escaped
            return exc

    def scripted(conn, messages, first):
        # The peer under script answers each handshake step with the
        # next message (a client speaks first, a server replies).
        for message in messages:
            if not first:
                yield conn.recv()
            first = False
            conn.send(message, size=64)
        yield world.sim.timeout(10.0)

    def server():
        conn = yield listener.accept()
        if side == "server":
            return (yield from outcome(server_factory(
                pki["server"], client_auth="optional")(conn)))
        yield from scripted(conn, script(pki), first=False)

    def client():
        conn = yield from a.connect(b, 443)
        if side == "client":
            return (yield from outcome(
                client_wrapper(trust=pki["browser"])(conn)))
        yield from scripted(conn, script(pki), first=True)

    parties = {"server": b.spawn(server()), "client": a.spawn(client())}
    failure = world.run_until(parties[side], limit=1e6)
    assert isinstance(failure, HandshakeError), repr(failure)


def test_replayed_record_detected(world, pki):
    client_channel, server_channel = _secure_pair(world, pki)

    def replay():
        client_channel.send({"n": 1})
        # Capture and re-send the exact frame (sequence number 1):
        # emulate the attacker replaying by recomputing the identical
        # frame.
        mac = _mac(client_channel._send_key, 1, {"n": 1})
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
    """The carried record size ("w") is not MAC-covered, so the
    receiver only believes values inside a sane range: a forged petabyte
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
        assert detected_at < 60.0, "forged w=%r stalled the channel" % forged_w
        assert server_channel.integrity_failures == 1


def test_secure_channel_call_costs_seven_kernel_events(world, pki):
    """An RPC over TLS costs what a plain one does: two timers — each
    record's one arrival timer, set for when the receiver's CPU is
    done with it, the senders' and receivers' record CPU charged as
    delay on it — and three kernel events, those two plus the caller's
    reply waiter.  Verification and the hand-off to the receiver run
    in the arrival timer's callback.  It was nineteen events, then
    seven with six timers while per-channel send and receive processes
    slept each record's CPU charge on a timer of its own."""
    from repro.sim.rpc import RpcChannel, RpcServer

    a = world.host("client-host", "r0/c0/m0/s0")
    b = world.host("server-host", "r0/c1/m0/s0")
    server = RpcServer(b, 7443, channel_factory=server_factory(
        pki["server"], client_auth="required"))
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
        == (3 * calls, 2 * calls)


def test_receiver_may_close_the_channel_from_inside_the_pump(world, pki):
    # A record's arrival timer hands the verified payload to a parked
    # recv() in its own frame; a receiver that reacts by closing the
    # channel does so under that callback, and the channel leaves no
    # process behind on its host.
    client_channel, server_channel = _secure_pair(world, pki)
    server_host = world.get_host("server-host")

    def sender():
        client_channel.send({"last": True})
        try:
            yield client_channel.recv()
        except ConnectionClosed:
            return "peer hung up"

    def receiver():
        message = yield server_channel.recv()
        server_channel.close()
        assert list(server_host._processes) == [reader]  # this one only
        try:
            yield server_channel.recv()
        except ConnectionClosed:
            return message

    proc = world.get_host("client-host").spawn(sender())
    reader = server_host.spawn(receiver())
    assert world.run_until(reader, limit=1e6) == {"last": True}
    assert world.run_until(proc, limit=1e6) == "peer hung up"
    world.run()
    assert not server_host._processes


#: Record sizes sent back to back: a large record ahead of small ones
#: fills the receiver's CPU queue, and every burst fills the sender's.
_BURST = (200_000, 40, 64_000, 7, 150_000, 1_000)


def _record_timeline(pki, encryption):
    """Every record's delivery instant, and the end of stream's, in a
    run that fills both CPU queues in both directions.

    The server speaks first, from the frame its handshake finished in,
    so its records are on their way before the client has a channel;
    the client sends its own burst as soon as it has one.  A second
    client burst is closed the moment its last record has left the
    client's CPU, while the server's CPU still holds that record.
    """
    world = World(topology=Topology.balanced(2, 2, 2, 2),
                  params=LinkParameters(jitter_fraction=0.0), seed=13)
    a = world.host("client-host", "r0/c0/m0/s0")
    b = world.host("server-host", "r0/c1/m0/s0")
    listener = b.listen(443)
    factory = server_factory(pki["server"], client_auth="required",
                             encryption=encryption)
    wrap = client_wrapper(credentials=pki["client"], encryption=encryption)
    timeline = []

    def burst(channel, first):
        return [channel.send({"i": first + index}, size=size)
                for index, size in enumerate(_BURST)]

    def read(channel, side):
        while True:
            try:
                message = yield channel.recv()
            except ConnectionClosed:
                timeline.append((side, "eof", world.now))
                return
            timeline.append((side, message["i"], world.now))

    def server():
        conn = yield listener.accept()
        channel = yield from factory(conn)
        burst(channel, 0)
        yield from read(channel, "server")

    def client():
        conn = yield from a.connect(b, 443)
        channel = yield from wrap(conn)
        burst(channel, 0)
        a.spawn(read(channel, "client"))
        yield world.sim.timeout(5.0)
        wires = burst(channel, len(_BURST))
        yield world.sim.timeout(
            sum(DEFAULT_COSTS.record_cost(wire, encryption) for wire in wires)
            + 1e-9)
        channel.close()

    b.spawn(server())
    a.spawn(client())
    world.run()
    return timeline


#: ``_record_timeline`` as the per-channel send and receive record
#: pumps produced it, before record CPU became a delay on each record's
#: one arrival timer: (receiving side, record index or end of stream,
#: instant).
_PUMP_TIMELINES = {
    True: [
        ("client", 0, 0.32241684000000004),
        ("client", 1, 0.32242146000000005),
        ("client", 2, 0.32626368000000006),
        ("client", 3, 0.32626632000000005),
        ("client", 4, 0.33526854000000006),
        ("client", 5, 0.33533076000000006),
        ("server", 0, 0.36243924),
        ("server", 1, 0.36244386),
        ("server", 2, 0.36628608),
        ("server", 3, 0.36628872),
        ("server", 4, 0.37529094),
        ("server", 5, 0.37535316),
        ("client", "eof", 5.283330741),
        ("server", 6, 5.3624392400000005),
        ("server", 7, 5.362443860000001),
        ("server", 8, 5.366286080000001),
        ("server", 9, 5.366288720000001),
        ("server", 10, 5.375290940000001),
        ("server", 11, 5.375353160000001),
        ("server", "eof", 5.375353160000001),
    ],
    False: [
        ("client", 0, 0.30241313999999997),
        ("client", 1, 0.30241390999999995),
        ("client", 2, 0.30305427999999995),
        ("client", 3, 0.30305471999999994),
        ("client", 4, 0.3045550899999999),
        ("client", 5, 0.3045654599999999),
        ("server", 0, 0.3424355399999999),
        ("server", 1, 0.3424363099999999),
        ("server", 2, 0.3430766799999999),
        ("server", 3, 0.3430771199999999),
        ("server", 4, 0.3445774899999999),
        ("server", 5, 0.34458785999999986),
        ("client", "eof", 5.262567291),
        ("server", 6, 5.34243554),
        ("server", 7, 5.34243631),
        ("server", 8, 5.34307668),
        ("server", 9, 5.34307712),
        ("server", 10, 5.34457749),
        ("server", 11, 5.34458786),
        ("server", "eof", 5.34458786),
    ],
}


@pytest.mark.parametrize("encryption", [True, False],
                         ids=["encrypted", "integrity-only"])
def test_record_delivery_instants_match_the_record_pumps(pki, encryption):
    assert _record_timeline(pki, encryption) == _PUMP_TIMELINES[encryption]


def test_record_sent_just_before_close_reaches_the_peer(world, pki):
    """A record handed to ``send()`` is delivered even when the channel
    is closed in the same instant, and the peer sees end of stream
    after it — the contract of a plain connection.  (A close used to
    kill the send pump while the record slept its CPU charge.)"""
    client_channel, server_channel = _secure_pair(world, pki)
    received = []

    def receiver():
        while True:
            try:
                received.append((yield server_channel.recv()))
            except ConnectionClosed:
                return received

    reader = world.get_host("server-host").spawn(receiver())
    client_channel.send({"last": True})
    client_channel.close()
    assert world.run_until(reader, limit=1e6) == [{"last": True}]


def test_record_still_in_receiver_cpu_is_lost_when_the_sender_crashes(
        world, pki):
    """A crash breaks the connection at once: a record that has arrived
    but is still being verified is dropped like one still on the wire,
    and the receiver sees end of stream at the crash instant.  (The
    receive pump used to deliver it and end the stream behind it.)"""
    client_channel, server_channel = _secure_pair(world, pki)
    network = world.network
    client_host = world.get_host("client-host")
    start = world.now
    wire = client_channel.send({"big": True}, size=200_000)
    cost = DEFAULT_COSTS.record_cost(wire, True)
    arrival = (start + cost + network.transfer_delay(
        client_host.site, world.get_host("server-host").site,
        wire + HEADER_OVERHEAD))
    crash_at = arrival + cost / 2     # inside the receiver's CPU charge

    def crasher():
        yield world.sim.timeout(crash_at - world.now)
        client_host.crash()

    def receiver():
        try:
            message = yield server_channel.recv()
        except ConnectionClosed:
            return ("end of stream", world.now)
        return ("delivered", message)

    client_host.spawn(crasher())
    reader = world.get_host("server-host").spawn(receiver())
    assert world.run_until(reader, limit=1e6) == ("end of stream", crash_at)
    world.run()
    assert server_channel.integrity_failures == 0


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
