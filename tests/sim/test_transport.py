"""Unit tests for hosts, datagrams and connections."""

import pytest

from repro.sim import network
from repro.sim.network import LinkParameters
from repro.sim.topology import Level, Topology
from repro.sim.transport import (ConnectionClosed, ConnectRefused,
                                 ConnectTimeout, HostDown, Inbox,
                                 TransportError)
from repro.sim.world import World


@pytest.fixture
def world():
    topo = Topology.balanced(regions=2, countries=2, cities=2, sites=2)
    return World(topology=topo, seed=7)


def test_host_creation_and_lookup(world):
    host = world.host("alpha", "r0/c0/m0/s0")
    assert world.hosts["alpha"] is host
    with pytest.raises(ValueError):
        world.host("alpha", "r0/c0/m0/s1")


# -- UDP -------------------------------------------------------------------


def test_udp_round_trip(world):
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r1/c0/m0/s0")
    received = []

    def receiver():
        sock = b.udp_socket(5000)
        datagram = yield sock.recv()
        received.append((datagram.payload, world.now))

    def sender():
        sock = a.udp_socket()
        sock.send_to(b, 5000, {"op": "ping"})
        yield world.sim.timeout(0)

    b.spawn(receiver())
    a.spawn(sender())
    world.run()
    assert received and received[0][0] == {"op": "ping"}
    assert received[0][1] > 0.150  # at least one world-level latency


def test_udp_to_unbound_port_is_silently_dropped(world):
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r0/c0/m0/s1")
    sock = a.udp_socket()
    sock.send_to(b, 9999, "nobody home")
    sock.send_burst(b, 9999, [("nobody", None), ("home", None)])
    world.run()  # no error raised


def test_a_closed_socket_sends_and_receives_nothing(world):
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r0/c0/m0/s1")

    def refused(sock):
        assert sock.closed
        for attempt in (lambda: sock.send_to(b, 5000, "x"),
                        lambda: sock.send_burst(b, 5000, [("x", None)]),
                        sock.recv):
            with pytest.raises(TransportError):
                attempt()
        return True

    closed = a.udp_socket()
    closed.close()
    assert refused(closed)
    crashed = a.udp_socket()
    a.crash()  # closes every socket of the host
    assert refused(crashed)
    assert world.network.meter.total_messages == 0


def test_udp_duplicate_bind_rejected(world):
    a = world.host("a", "r0/c0/m0/s0")
    a.udp_socket(5000)
    with pytest.raises(TransportError):
        a.udp_socket(5000)


def test_udp_loss(world):
    world.network.params.loss[Level.WORLD] = 1.0
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r1/c0/m0/s0")
    received = []

    def receiver():
        sock = b.udp_socket(5000)
        datagram = yield sock.recv()
        received.append(datagram)

    b.spawn(receiver())
    a.udp_socket().send_to(b, 5000, "lost")
    world.run(until=10.0)
    assert not received
    assert world.network.meter.dropped_messages == 1


# -- TCP -------------------------------------------------------------------


def test_connect_and_exchange(world):
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r0/c1/m0/s0")
    listener = b.listen(80)
    transcript = []

    def server():
        conn = yield listener.accept()
        request = yield conn.recv()
        transcript.append(("server got", request))
        conn.send("response:" + request)

    def client():
        conn = yield from a.connect(b, 80)
        conn.send("hello")
        reply = yield conn.recv()
        transcript.append(("client got", reply))
        conn.close()

    b.spawn(server())
    proc = a.spawn(client())
    world.run_until(proc, limit=100)
    assert ("server got", "hello") in transcript
    assert ("client got", "response:hello") in transcript


def test_connect_costs_a_round_trip(world):
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r1/c0/m0/s0")
    b.listen(80)

    def client():
        conn = yield from a.connect(b, 80)
        return world.now

    proc = a.spawn(client())
    connected_at = world.run_until(proc, limit=100)
    assert connected_at >= 2 * world.network.transfer_delay(a.site, b.site,
                                                            0)


def test_connect_refused_when_no_listener(world):
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r0/c0/m0/s1")

    def client():
        try:
            yield from a.connect(b, 81)
        except ConnectRefused:
            return "refused"

    proc = a.spawn(client())
    assert world.run_until(proc, limit=100) == "refused"


def test_connect_timeout_to_down_host(world):
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r0/c0/m0/s1")
    b.listen(80)
    b.crash()

    def client():
        try:
            yield from a.connect(b, 80)
        except ConnectTimeout:
            return "timeout"

    proc = a.spawn(client())
    assert world.run_until(proc, limit=100) == "timeout"


def test_fifo_preserved_across_message_sizes(world):
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r1/c0/m0/s0")
    listener = b.listen(80)
    received = []

    def server():
        conn = yield listener.accept()
        for _ in range(2):
            msg = yield conn.recv()
            received.append(msg["tag"])

    def client():
        conn = yield from a.connect(b, 80)
        conn.send({"tag": "big"}, size=5_000_000)
        conn.send({"tag": "small"}, size=10)

    b.spawn(server())
    a.spawn(client())
    world.run()
    assert received == ["big", "small"]


def test_recv_after_close_raises(world):
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r0/c0/m0/s1")
    listener = b.listen(80)

    def server():
        conn = yield listener.accept()
        msg = yield conn.recv()
        assert msg == "bye"
        try:
            yield conn.recv()
        except ConnectionClosed:
            return "eof"

    def client():
        conn = yield from a.connect(b, 80)
        conn.send("bye")
        conn.close()

    server_proc = b.spawn(server())
    a.spawn(client())
    assert world.run_until(server_proc, limit=100) == "eof"


def test_send_after_close_raises(world):
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r0/c0/m0/s1")
    b.listen(80)

    def client():
        conn = yield from a.connect(b, 80)
        conn.close()
        try:
            conn.send("too late")
        except ConnectionClosed:
            return "rejected"

    proc = a.spawn(client())
    assert world.run_until(proc, limit=100) == "rejected"


def test_crash_breaks_connections_and_kills_processes(world):
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r0/c0/m0/s1")
    listener = b.listen(80)
    outcome = []

    def server():
        conn = yield listener.accept()
        while True:
            yield conn.recv()

    def client():
        conn = yield from a.connect(b, 80)
        conn.send("one")
        yield world.sim.timeout(1.0)
        b.crash()
        try:
            yield conn.recv()
        except ConnectionClosed:
            outcome.append("client saw break")

    server_proc = b.spawn(server())
    a.spawn(client())
    world.run(until=50)
    assert outcome == ["client saw break"]
    assert not server_proc.alive


def test_daemon_crashing_its_own_host_dies_with_it(world):
    # Regression: crash() kills every process of the host, including
    # the one that called it; closing that running generator escaped
    # as "ValueError: generator already executing".
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r0/c0/m0/s1")
    listener = b.listen(80)
    trail = []

    def fault_injector():
        conn = yield listener.accept()
        yield conn.recv()
        b.crash()
        trail.append("crash returned")
        yield world.sim.timeout(1.0)
        trail.append("resumed on a dead host")

    def bystander():
        yield world.sim.timeout(100.0)
        trail.append("bystander survived")

    def client():
        conn = yield from a.connect(b, 80)
        conn.send("die")
        try:
            yield conn.recv()
        except ConnectionClosed:
            return "saw the crash"

    daemon = b.spawn(fault_injector())
    other = b.spawn(bystander())
    proc = a.spawn(client())
    assert world.run_until(proc, limit=50) == "saw the crash"
    world.run()
    assert trail == ["crash returned"]
    assert not daemon.alive and not other.alive
    assert not b._processes and not b._connections


def test_crash_kills_processes_in_spawn_order(world):
    a = world.host("a", "r0/c0/m0/s0")
    order = []

    def daemon(name):
        try:
            yield world.sim.timeout(100.0)
        finally:
            order.append(name)

    names = ["first", "second", "third", "fourth"]
    procs = [a.spawn(daemon(name)) for name in names]
    world.run(until=1.0)
    procs[1].kill()                      # an exit in the middle...
    world.run(until=2.0)
    assert list(a._processes) == [procs[0], procs[2], procs[3]]
    a.crash()                            # ...leaves the order intact
    assert order == ["second", "first", "third", "fourth"]
    world.run()
    assert not a._processes


def test_parked_recv_is_resumed_inside_the_arrival_event(world):
    """The connection path's hand-off: one kernel event (the arrival
    timer) per message, the receiver resumed in that event's frame."""
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r0/c0/m0/s1")
    listener = b.listen(80)
    seen = []

    def server():
        conn = yield listener.accept()
        while True:
            message = yield conn.recv()
            seen.append((message, world.sim.events_processed))

    def client():
        conn = yield from a.connect(b, 80)
        yield world.sim.timeout(1.0)     # server parked in recv()
        before = world.sim.events_processed
        for index in range(3):
            conn.send(index)
        yield world.sim.timeout(1.0)
        return before

    b.spawn(server())
    before = world.run_until(a.spawn(client()), limit=50)
    assert seen == [(0, before + 1), (1, before + 2), (2, before + 3)]


def test_inbox_keeps_data_failures_and_end_of_stream_in_order(world):
    """The channel contract on the receive side, backlog and parked:
    FIFO, a failure fails one get() in its place, end of stream only
    after everything put before it — and then for every get()."""
    sim = world.sim
    inbox = Inbox(sim)
    payload_that_is_an_exception = ValueError("just data")
    inbox.put_inline("first")
    inbox.put_failure(KeyError("tampered"))
    inbox.put_inline(payload_that_is_an_exception)
    inbox.close("stream ended")
    inbox.close("a later reason does not replace the first")
    outcomes = []

    def reader():
        for _ in range(5):
            try:
                outcomes.append((yield inbox.get()))
            except (KeyError, ConnectionClosed) as exc:
                outcomes.append((type(exc).__name__, str(exc)))

    world.run_until(sim.process(reader()), limit=10)
    assert outcomes == ["first", ("KeyError", "'tampered'"),
                        payload_that_is_an_exception,
                        ("ConnectionClosed", "stream ended"),
                        ("ConnectionClosed", "stream ended")]

    # Parked receivers: data is handed over in the producer's frame,
    # a failure and the end of stream through the run queue.
    inbox = Inbox(sim)
    parked = [inbox.get() for _ in range(4)]
    inbox.put_inline("now")
    assert parked[0].callbacks is None and parked[0].value == "now"
    inbox.put_failure(KeyError("one receiver only"))
    assert parked[1].triggered and parked[1].callbacks is not None
    inbox.close("over")
    world.run()
    assert [event._ok for event in parked] == [True, False, False, False]
    assert isinstance(parked[1]._value, KeyError)
    assert all(isinstance(event._value, ConnectionClosed)
               for event in parked[2:])


def test_a_host_forgets_its_processes_as_they_end_or_die(world):
    """Ownership is a slot each process clears as it ends — returned,
    raised or killed by a crash — at no kernel event of its own."""
    a = world.host("a", "r0/c0/m0/s0")
    sim = world.sim

    def sleeps(delay):
        yield sim.timeout(delay)

    def breaks():
        yield sim.timeout(1.0)
        raise ValueError("handled below")

    a.spawn(sleeps(1.0))
    started = a.start(sleeps(1.0))
    broken = a.start(breaks())
    broken.defuse()
    assert len(a._processes) == 3
    world.run()
    assert not a._processes
    assert not started.alive and broken._ok is False
    # The spawn's start event, three timers and the failure.
    assert sim.events_processed == 5

    daemons = [a.spawn(sleeps(100.0)), a.start(sleeps(100.0))]
    world.run(until=world.now + 1.0)
    a.crash()
    assert not a._processes
    assert not any(daemon.alive for daemon in daemons)


def test_start_on_a_host_its_first_step_crashed_kills_it(world):
    a = world.host("a", "r0/c0/m0/s0")
    trail = []

    def crashes_its_host():
        a.crash()
        try:
            yield world.sim.timeout(5.0)
            trail.append("resumed on a dead host")
        finally:
            trail.append(("closed", world.now))

    process = a.start(crashes_its_host())
    assert trail == [("closed", 0.0)]
    assert not process.alive and not a._processes
    assert world.sim.heap_size == 0       # its timer was withdrawn
    with pytest.raises(HostDown):
        a.start(crashes_its_host())


def test_spawn_on_crashed_host_rejected(world):
    a = world.host("a", "r0/c0/m0/s0")
    a.crash()
    with pytest.raises(HostDown):
        a.spawn(iter(()))


def test_a_crashed_host_opens_no_socket_listener_or_connection(world):
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r0/c0/m0/s1")
    b.listen(80)
    a.crash()
    with pytest.raises(HostDown):
        a.udp_socket()
    with pytest.raises(HostDown):
        a.listen(80)
    with pytest.raises(HostDown):
        next(a.connect(b, 80))
    assert not a._udp_ports and not a._tcp_listeners


def test_restart_allows_new_daemons(world):
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r0/c0/m0/s1")
    b.listen(80)
    b.crash()
    b.restart()
    # Old listener is gone; binding the port again must work.
    listener = b.listen(80)

    def server():
        conn = yield listener.accept()
        msg = yield conn.recv()
        return msg

    def client():
        conn = yield from a.connect(b, 80)
        conn.send("after reboot")

    server_proc = b.spawn(server())
    a.spawn(client())
    assert world.run_until(server_proc, limit=100) == "after reboot"


def test_bytes_accounting_on_connection(world):
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r0/c0/m0/s1")
    listener = b.listen(80)
    sizes = {}

    def server():
        conn = yield listener.accept()
        yield conn.recv()
        sizes["received"] = conn.bytes_received

    def client():
        conn = yield from a.connect(b, 80)
        sizes["sent"] = conn.send("payload", size=1000)

    b.spawn(server())
    a.spawn(client())
    world.run()
    assert sizes["sent"] == sizes["received"] > 1000


def test_connection_fifo_preserved_under_jitter():
    # Regression: delivery used to recompute the transfer delay
    # independently of the FIFO pacing clock (a second jitter draw,
    # or just one float-rounding ULP), letting a small message sent
    # after a large one arrive first.  Delivery now reuses the pacing
    # clock's exact arrival timestamp.
    for seed in range(30):
        world = World(topology=Topology.balanced(2, 1, 1, 2),
                      params=LinkParameters(jitter_fraction=0.3),
                      seed=seed)
        a = world.host("a", "r0/c0/m0/s0")
        b = world.host("b", "r1/c0/m0/s1")
        listener = b.listen(7000)
        received = []

        def sender():
            conn = yield from a.connect(b, 7000)
            conn.send("first", size=200_000)
            conn.send("second", size=10)
            yield world.sim.timeout(60.0)

        def receiver():
            conn = yield listener.accept()
            for _ in range(2):
                message = yield conn.recv()
                received.append(message)

        b.spawn(receiver())
        proc = a.spawn(sender())
        world.run_until(proc, limit=1000)
        assert received == ["first", "second"], "seed %d" % seed


def test_recv_backlog_fast_path_preserves_fifo(world):
    """A receiver that falls behind drains its backlog in exact send
    order — the direct hand-off path must not reorder or drop."""
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r0/c0/m0/s1")
    listener = b.listen(7000)
    received = []

    def sender():
        conn = yield from a.connect(b, 7000)
        for index in range(8):
            conn.send(index)
        yield world.sim.timeout(5.0)   # everything lands; backlog builds
        conn.close()

    def receiver():
        conn = yield listener.accept()
        yield world.sim.timeout(4.0)   # let the backlog accumulate
        assert len(conn._inbox) == 8   # all eight queued, nobody waiting
        while True:
            try:
                message = yield conn.recv()
            except ConnectionClosed:
                return
            received.append(message)

    b.spawn(receiver())
    proc = a.spawn(sender())
    world.run_until(proc, limit=1000)
    world.run()
    assert received == list(range(8))


def test_recv_backlog_eof_repeats_for_every_recv(world):
    """EOF behind a backlog: queued messages drain first, then every
    subsequent recv() — fast path or slow — fails with
    ConnectionClosed."""
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r0/c0/m0/s1")
    listener = b.listen(7000)
    outcomes = []

    def sender():
        conn = yield from a.connect(b, 7000)
        conn.send("only")
        conn.close()
        yield world.sim.timeout(0)

    def receiver():
        conn = yield listener.accept()
        yield world.sim.timeout(5.0)   # message and EOF both queued
        outcomes.append((yield conn.recv()))
        for _ in range(2):             # EOF stays in place for repeats
            try:
                yield conn.recv()
            except ConnectionClosed:
                outcomes.append("closed")

    a.spawn(sender())
    proc = b.spawn(receiver())
    world.run_until(proc, limit=1000)
    assert outcomes == ["only", "closed", "closed"]


def test_abrupt_break_eof_outranks_stragglers(world):
    """After an abrupt break (peer crash), EOF sticks at the inbox
    head on both the parked-getter and backlog recv paths: every
    subsequent recv fails, and a message still in flight at crash
    time is dropped, not resurrected behind the failure."""
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r1/c0/m0/s0")
    listener = b.listen(7000)
    outcomes = []

    def server():
        conn = yield listener.accept()
        # ~3.5s in flight at world separation: still traveling when
        # the host dies.
        conn.send("straggler", size=5_000_000)
        yield world.sim.timeout(1000.0)  # killed by the crash

    def receiver():
        conn = yield from a.connect(b, 7000)
        for _ in range(3):
            try:
                message = yield conn.recv()
                outcomes.append(message)
            except ConnectionClosed:
                outcomes.append("closed")

    def controller():
        yield world.sim.timeout(1.0)     # after the send, before arrival
        b.crash()

    b.spawn(server())
    world.sim.process(controller())
    proc = a.spawn(receiver())
    world.run_until(proc, limit=100)
    world.run()
    assert outcomes == ["closed", "closed", "closed"]


# -- edges of the connection life cycle ------------------------------------


def _pair(world, port=7000):
    """(client end, server end) of one connection across CITY."""
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r0/c0/m0/s1")
    listener = b.listen(port)
    ends = {}

    def accept():
        ends["server"] = yield listener.accept()

    def connect():
        ends["client"] = yield from a.connect(b, port)

    b.spawn(accept())
    world.run_until(a.spawn(connect()), limit=100)
    world.run()
    return ends["client"], ends["server"]


def test_a_port_takes_one_listener_and_a_closed_one_accepts_nothing(world):
    b = world.host("b", "r0/c0/m0/s1")
    listener = b.listen(80)
    with pytest.raises(TransportError, match="already listening"):
        b.listen(80)
    listener.close()
    with pytest.raises(TransportError, match="listener is closed"):
        listener.accept()


def test_a_listener_closed_during_the_handshake_refuses(world):
    # The SYN finds the listener; it is gone when the SYN-ACK is back.
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r0/c0/m0/s1")
    listener = b.listen(80)
    flight = world.network.transfer_delay(a.site, b.site, 64)

    def close_in_between():
        yield world.sim.timeout(1.5 * flight)
        listener.close()

    def client():
        try:
            yield from a.connect(b, 80)
        except ConnectRefused:
            return "refused"

    world.sim.process(close_in_between())
    assert world.run_until(a.spawn(client()), limit=100) == "refused"
    assert not a._connections and not b._connections


def test_a_syn_ack_after_the_connect_timeout_is_ignored(monkeypatch):
    # A 2 s WORLD flight: the SYN-ACK is back at 4 s, after the 3 s
    # connect timeout failed the attempt.
    monkeypatch.setitem(network.DEFAULT_LATENCY, Level.WORLD, 2.0)
    world = World(topology=Topology.balanced(2, 1, 1, 1), seed=7)
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r1/c0/m0/s0")
    b.listen(80)

    def client():
        try:
            yield from a.connect(b, 80)
        except ConnectTimeout:
            return world.now

    assert world.run_until(a.spawn(client()), limit=100) == 3.0
    world.run()  # the late SYN-ACK arrives and is dropped
    assert world.now > 4.0 and not a._connections


def test_a_connect_whose_host_crashed_expires_quietly(world):
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r0/c0/m0/s1")
    b.crash()

    def client():
        yield from a.connect(b, 80)

    def crash_the_client():
        yield world.sim.timeout(1.0)
        a.crash()

    a.spawn(client())
    world.sim.process(crash_the_client())
    world.run()  # the connect's expiry finds nobody waiting
    assert world.now >= 3.0


def test_a_send_to_a_crashed_peer_breaks_the_connection(world):
    # Marked down on the network, not yet crashed: the send finds out.
    client, _server = _pair(world)
    world.network.set_host_down("b")
    with pytest.raises(ConnectionClosed, match="peer host b is down"):
        client.send("x")
    assert client.broken


def test_a_message_in_flight_to_a_broken_end_is_never_received(world):
    client, server = _pair(world)
    client.send("straggler")
    client.local.crash()  # breaks both ends; the message is in flight
    assert not server.local._connections  # the survivor let go of it
    world.run()
    event = server.recv()
    world.run()
    with pytest.raises(ConnectionClosed):
        event.value


def test_recv_on_a_closed_connection_fails_at_once_and_quietly(world):
    client, _server = _pair(world)
    client.close()
    event = client.recv()       # nobody waits on it
    world.run()                 # its failure must not end the run
    with pytest.raises(ConnectionClosed, match="recv on closed"):
        event.value


def test_closing_twice_sends_one_fin(world):
    client, server = _pair(world)
    sent = world.network.meter.total_messages
    client.close()
    client.close()
    assert world.network.meter.total_messages == sent + 1


def test_receive_into_moves_the_backlog_and_the_end_of_stream(world):
    client, server = _pair(world)
    client.send("first")
    client.close()
    world.run()                 # both wait in the old inbox
    inbox = Inbox(world.sim)
    server.receive_into(inbox)
    assert inbox.get().value == "first"
    with pytest.raises(ConnectionClosed):
        inbox.get().value


def test_closing_a_socket_twice_leaves_its_ports_next_owner(world):
    a = world.host("a", "r0/c0/m0/s0")
    old = a.udp_socket(5000)
    old.close()
    new = a.udp_socket(5000)
    old.close()
    assert a._udp_ports[5000] is new
