"""Unit tests for connection and datagram RPC."""

import hashlib

import pytest

from repro.sim import rpc
from repro.sim.rpc import (ChannelPool, RpcChannel, RpcFault, RpcServer,
                           RpcTimeout, UdpRpcClient, UdpRpcServer)
from repro.sim.topology import Level, Topology
from repro.sim.transport import TransportError
from repro.sim.world import World


@pytest.fixture
def world():
    topo = Topology.balanced(regions=2, countries=2, cities=2, sites=2)
    return World(topology=topo, seed=3)


def _echo_server(world, host, port=7000):
    server = RpcServer(host, port)
    server.register("echo", lambda ctx, args: args.get("text"))
    server.register("add", lambda ctx, args: args["a"] + args["b"])

    def slow(ctx, args):
        yield world.sim.timeout(args.get("delay", 1.0))
        return "slept"

    server.register("slow", slow)

    def fails(ctx, args):
        raise ValueError("deliberate")

    server.register("fails", fails)
    server.start()
    return server


def test_one_shot_call(world):
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c1/m0/s0")
    _echo_server(world, b)

    def client():
        value = yield from rpc.call(a, b, 7000, "echo", {"text": "hi"})
        return value

    proc = a.spawn(client())
    assert world.run_until(proc, limit=100) == "hi"


def test_remote_fault_propagates(world):
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c0/m0/s1")
    _echo_server(world, b)

    def client():
        try:
            yield from rpc.call(a, b, 7000, "fails", {})
        except RpcFault as fault:
            return (fault.kind, fault.message)

    proc = a.spawn(client())
    assert world.run_until(proc, limit=100) == ("ValueError", "deliberate")


def test_unknown_method_fault(world):
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c0/m0/s1")
    _echo_server(world, b)

    def client():
        try:
            yield from rpc.call(a, b, 7000, "nope", {})
        except RpcFault as fault:
            return fault.kind

    proc = a.spawn(client())
    assert world.run_until(proc, limit=100) == "NoSuchMethod"


def test_channel_reuse_is_cheaper_than_reconnect(world):
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r1/c0/m0/s0")
    _echo_server(world, b)

    def reuse():
        channel = yield from RpcChannel.open(a, b, 7000)
        start = world.now
        for i in range(5):
            yield from channel.call("add", {"a": i, "b": 1})
        channel.close()
        return world.now - start

    proc = a.spawn(reuse())
    reused_duration = world.run_until(proc, limit=1000)

    world2 = World(topology=Topology.balanced(2, 2, 2, 2), seed=3)
    a2 = world2.host("client", "r0/c0/m0/s0")
    b2 = world2.host("server", "r1/c0/m0/s0")
    _echo_server(world2, b2)

    def reconnect():
        start = world2.now
        for i in range(5):
            yield from rpc.call(a2, b2, 7000, "add", {"a": i, "b": 1})
        return world2.now - start

    proc2 = a2.spawn(reconnect())
    reconnect_duration = world2.run_until(proc2, limit=1000)
    assert reused_duration < reconnect_duration


def test_concurrent_requests_interleave(world):
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c0/m0/s1")
    _echo_server(world, b)

    def client():
        channel = yield from RpcChannel.open(a, b, 7000)
        start = world.now
        # Issue two slow calls through two sub-processes sharing a channel.
        first = world.sim.process(channel.call("slow", {"delay": 2.0}))
        second = world.sim.process(channel.call("slow", {"delay": 2.0}))
        yield first
        yield second
        channel.close()
        return world.now - start

    proc = a.spawn(client())
    duration = world.run_until(proc, limit=100)
    assert duration < 3.0  # served concurrently, not 4s serially


def test_server_concurrency_limit(world):
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c0/m0/s1")
    server = RpcServer(b, 7001, concurrency=1)

    def slow(ctx, args):
        yield world.sim.timeout(1.0)
        return "done"

    server.register("slow", slow)
    server.start()

    def client():
        channel = yield from RpcChannel.open(a, b, 7001)
        start = world.now
        first = world.sim.process(channel.call("slow", {}))
        second = world.sim.process(channel.call("slow", {}))
        yield first
        yield second
        channel.close()
        return world.now - start

    proc = a.spawn(client())
    duration = world.run_until(proc, limit=100)
    assert duration >= 2.0  # serialised by the concurrency limit


def test_single_worker_server_queues_in_arrival_order(world):
    """concurrency=1 with a service time: a handler waiting for the
    worker is suspended (and continued by its own process), so three
    pipelined calls finish one service time apart, first come first."""
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c0/m0/s1")
    server = RpcServer(b, 7001, concurrency=1, service_time=0.5)
    server.register("work", lambda ctx, args: args["n"])
    server.start()
    finished = []

    def one(channel, n):
        value = yield from channel.call("work", {"n": n})
        finished.append((value, world.now))

    def client():
        channel = yield from RpcChannel.open(a, b, 7001)
        start = world.now
        calls = [world.sim.process(one(channel, n)) for n in range(3)]
        for call in calls:
            yield call
        channel.close()
        return start

    start = world.run_until(a.spawn(client()), limit=100)
    assert [n for n, _when in finished] == [0, 1, 2]
    rtt = finished[0][1] - start - 0.5
    assert 0.0 < rtt < 0.1
    assert [when - start - rtt for _n, when in finished] \
        == pytest.approx([0.5, 1.0, 1.5])
    assert server.busy_time == pytest.approx(1.5)
    world.run()
    assert len(b._processes) == 1        # the accept loop, nothing else


def test_channel_call_costs_three_kernel_events(world):
    """One call = the request's arrival timer, the reply's arrival
    timer and the caller's reply waiter.  Receiver, handler and reply
    run inside the first, the dispatcher inside the second (it was
    nine: plus a Store getter and a relay event per message, and a
    start and a completion event for the per-request process)."""
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c0/m0/s1")
    _echo_server(world, b)
    calls = 50

    def client():
        channel = yield from RpcChannel.open(a, b, 7000)
        yield from channel.call("echo", {"text": "warm"})
        events = world.sim.events_processed
        timers = world.sim.timers_scheduled
        for index in range(calls):
            value = yield from channel.call("echo", {"text": index})
            assert value == index
        return (world.sim.events_processed - events,
                world.sim.timers_scheduled - timers)

    events, timers = world.run_until(a.spawn(client()), limit=100)
    assert events == 3 * calls
    assert timers == 2 * calls


def test_handler_that_never_waits_is_served_without_a_process(world):
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c0/m0/s1")
    server = RpcServer(b, 7000)
    owned = []

    def plain(ctx, args):
        owned.append(set(b._processes))
        return "plain"

    def generator_that_answers_from_memory(ctx, args):
        owned.append(set(b._processes))
        return "cached"
        yield  # pragma: no cover - a generator function that never waits

    server.register("plain", plain)
    server.register("cached", generator_that_answers_from_memory)
    server.start()

    def client():
        channel = yield from RpcChannel.open(a, b, 7000)
        yield world.sim.timeout(0.1)     # the serve loop is up
        resident = set(b._processes)
        first = yield from channel.call("plain", {})
        second = yield from channel.call("cached", {})
        return resident, first, second

    resident, first, second = world.run_until(a.spawn(client()), limit=100)
    assert (first, second) == ("plain", "cached")
    assert owned == [resident, resident]  # nothing spawned to serve them
    assert server.requests_served == 2


def test_pipelined_calls_are_not_head_of_line_blocked(world):
    """Two calls on one channel, the first handler sleeping 1 s: the
    second is received, served and answered meanwhile, so its reply
    arrives first (a shared HTTPD->GOS channel depends on this)."""
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c0/m0/s1")
    _echo_server(world, b)
    finished = []

    def one(channel, method, args):
        value = yield from channel.call(method, args)
        finished.append((value, world.now))

    def client():
        channel = yield from RpcChannel.open(a, b, 7000)
        start = world.now
        slow = world.sim.process(one(channel, "slow", {"delay": 1.0}))
        fast = world.sim.process(one(channel, "echo", {"text": "fast"}))
        yield fast
        yield slow
        channel.close()
        return start

    start = world.run_until(a.spawn(client()), limit=100)
    assert [value for value, _when in finished] == ["fast", "slept"]
    assert finished[0][1] - start < 0.1
    assert finished[1][1] - start >= 1.0


def test_suspended_handler_dies_with_its_host(world):
    """A handler that waits is continued by a process the host owns:
    a crash kills it mid-wait (it never replies, never resumes) and
    the host forgets it."""
    from repro.sim.transport import ConnectionClosed

    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c0/m0/s1")
    server = RpcServer(b, 7000)
    trail = []

    def slow(ctx, args):
        trail.append(("waiting", len(b._processes)))
        try:
            yield world.sim.timeout(10.0)
            trail.append("resumed on a dead host")
        finally:
            trail.append(("closed", world.now))

    server.register("slow", slow)
    server.start()

    def client():
        channel = yield from RpcChannel.open(a, b, 7000)
        yield world.sim.timeout(0.1)     # the serve loop is up
        resident = len(b._processes)
        try:
            yield from channel.call("slow", {})
        except ConnectionClosed:
            return resident

    def controller():
        yield world.sim.timeout(2.0)
        trail.append(("in flight", len(b._processes)))
        b.crash()

    world.sim.process(controller())
    resident = world.run_until(a.spawn(client()), limit=100)
    world.run()
    # Not yet a process while it ran in the serve loop's frame; one
    # more than the resident daemons once it waited.
    assert trail == [("waiting", resident), ("in flight", resident + 1),
                     ("closed", 2.0)]
    assert not b._processes
    assert server.requests_served == 0


def test_handler_may_crash_the_host_it_is_served_on(world):
    # The handler runs in the serve loop's frame, inside the arrival
    # event: crashing the host from there kills that (running) loop.
    from repro.sim.transport import ConnectionClosed

    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c0/m0/s1")
    server = RpcServer(b, 7000)

    def poison(ctx, args):
        b.crash()
        return "the reply of a dead host goes nowhere"

    server.register("poison", poison)
    server.start()

    def client():
        channel = yield from RpcChannel.open(a, b, 7000)
        try:
            yield from channel.call("poison", {})
        except ConnectionClosed:
            return "server died"

    assert world.run_until(a.spawn(client()), limit=100) == "server died"
    world.run()
    assert not b._processes and not b._connections


def test_call_timeout(world):
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c0/m0/s1")
    _echo_server(world, b)

    def client():
        try:
            yield from rpc.call(a, b, 7000, "slow", {"delay": 10.0},
                                timeout=1.0)
        except RpcTimeout:
            return "timed out"

    proc = a.spawn(client())
    assert world.run_until(proc, limit=100) == "timed out"


def test_context_carries_source(world):
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c0/m0/s1")
    server = RpcServer(b, 7000)
    seen = []
    server.register("who", lambda ctx, args: seen.append(ctx.src_host))
    server.start()

    def client():
        yield from rpc.call(a, b, 7000, "who", {})

    proc = a.spawn(client())
    world.run_until(proc, limit=100)
    assert seen == ["client"]


# -- UDP RPC -----------------------------------------------------------------


def _udp_server(world, host, port=5300):
    server = UdpRpcServer(host, port)
    server.register("lookup", lambda ctx, args: {"found": args["key"].upper()})

    def fails(ctx, args):
        raise KeyError("missing")

    server.register("fails", fails)
    server.start()
    return server


def test_udp_rpc_round_trip(world):
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("node", "r0/c1/m0/s0")
    _udp_server(world, b)
    client = UdpRpcClient(a)

    def run():
        value = yield from client.call(b, 5300, "lookup", {"key": "abc"})
        return value

    proc = a.spawn(run())
    assert world.run_until(proc, limit=100) == {"found": "ABC"}


def test_udp_rpc_fault(world):
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("node", "r0/c0/m0/s1")
    _udp_server(world, b)
    client = UdpRpcClient(a)

    def run():
        try:
            yield from client.call(b, 5300, "fails", {})
        except RpcFault as fault:
            return fault.kind

    proc = a.spawn(run())
    assert world.run_until(proc, limit=100) == "KeyError"


def test_udp_rpc_retries_through_loss(world):
    # 60% loss on world links: with 3 retries the call should usually
    # get through; the seed is fixed so this specific run succeeds.
    world.network.params.loss[Level.WORLD] = 0.6
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("node", "r1/c0/m0/s0")
    _udp_server(world, b)
    client = UdpRpcClient(a, timeout=1.0, retries=8)

    def run():
        value = yield from client.call(b, 5300, "lookup", {"key": "x"})
        return value

    proc = a.spawn(run())
    assert world.run_until(proc, limit=1000) == {"found": "X"}


def test_channel_close_fails_pending_callers(world):
    # Regression: close() used to kill the dispatcher without failing
    # pending waiters, deadlocking concurrent callers without a timeout.
    from repro.sim.transport import ConnectionClosed

    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c0/m0/s1")
    _echo_server(world, b)
    outcome = []

    def client():
        channel = yield from RpcChannel.open(a, b, 7000)

        def blocked():
            try:
                yield from channel.call("slow", {"delay": 60.0})
            except ConnectionClosed:
                outcome.append(("closed", world.now))

        world.sim.process(blocked())
        yield world.sim.timeout(1.0)
        channel.close()
        yield world.sim.timeout(1.0)

    proc = a.spawn(client())
    world.run_until(proc, limit=100)
    # Released at close time (~1s, after the connect RTT), not at the
    # 60s service time and not never.
    assert len(outcome) == 1
    assert outcome[0][0] == "closed"
    assert outcome[0][1] < 2.0


def test_accept_race_closes_connection(world):
    # Regression: a connection accepted in the same instant the
    # listener closed used to leak (never served, never closed).
    b = world.host("server", "r0/c0/m0/s1")
    server = RpcServer(b, 7000)
    server.start()
    world.run(until=world.now)  # let the accept loop arm its accept()
    listener = server._listener

    class FakeConn:
        closed = False

        def close(self):
            self.closed = True

    conn = FakeConn()
    listener._pending.put(conn)  # the accept fires with this conn...
    listener.close()             # ...but the listener just closed
    world.run(until=world.now)
    assert conn.closed


def test_udp_rpc_times_out_against_dead_host(world):
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("node", "r0/c0/m0/s1")
    _udp_server(world, b)
    b.crash()
    client = UdpRpcClient(a, timeout=0.5, retries=2)

    def run():
        try:
            yield from client.call(b, 5300, "lookup", {"key": "x"})
        except RpcTimeout:
            return "gave up at %.1f" % world.now

    proc = a.spawn(run())
    assert world.run_until(proc, limit=100) == "gave up at 1.5"


def test_udp_restart_fails_orphaned_waiters(world):
    # Regression: _ensure_open() used to clear _pending silently after
    # a host restart, leaving surviving callers to stall until their
    # retry timers expired.  They must fail immediately instead.
    from repro.sim.transport import ConnectionClosed

    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("node", "r0/c0/m0/s1")  # never started: no replies
    client = UdpRpcClient(a, timeout=30.0, retries=0)
    outcome = []

    def stranded():
        try:
            yield from client.call(b, 5300, "lookup", {"key": "x"})
        except ConnectionClosed:
            outcome.append(("failed fast", world.now))
        except RpcTimeout:
            outcome.append(("stalled until timeout", world.now))

    # Survives the crash: not registered with host a.
    world.sim.process(stranded())

    def chaos():
        yield world.sim.timeout(1.0)
        a.crash()
        a.restart()
        yield world.sim.timeout(1.0)
        # The next call re-opens the socket and must evict the orphan.
        try:
            yield from client.call(b, 5300, "lookup", {"key": "y"})
        except RpcTimeout:
            pass

    proc = world.sim.process(chaos())
    world.run_until(proc, limit=100)
    assert outcome == [("failed fast", 2.0)]


def test_udp_calls_leave_no_timers_in_heap(world):
    # The cancellation invariant: N successful calls leave the event
    # heap with no stale (cancelled-but-present) timers and nothing
    # pending from the calls themselves.
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("node", "r0/c1/m0/s0")
    _udp_server(world, b)
    client = UdpRpcClient(a)

    def run():
        for index in range(100):
            yield from client.call(b, 5300, "lookup", {"key": "k%d" % index})

    proc = a.spawn(run())
    world.run_until(proc, limit=1000)
    world.run()  # drain the driver's own completion event
    assert world.sim.stale_timer_count == 0
    assert world.sim.heap_size == 0


def test_rpc_channel_counters_bind_to_registry():
    from repro.analysis.telemetry import MetricsRegistry
    from repro.sim.topology import Topology
    from repro.sim.world import World

    world = World(topology=Topology.balanced(1, 1, 1, 2), seed=3)
    a = world.host("a", "r0/c0/m0/s0")
    b = world.host("b", "r0/c0/m0/s1")
    server = rpc.RpcServer(b, 7000)
    server.register("echo", lambda ctx, args: args["x"])
    server.register("boom", lambda ctx, args: 1 / 0)
    server.start()

    def driver():
        channel = yield from rpc.RpcChannel.open(a, b, 7000)
        channel.bind_metrics(world.metrics, "chan")
        value = yield from channel.call("echo", {"x": 5})
        assert value == 5
        try:
            yield from channel.call("boom", {})
        except rpc.RpcFault:
            pass
        channel.close()

    world.run_until(a.spawn(driver()), limit=1e6)
    assert world.metrics.get("chan.calls").value == 2
    assert world.metrics.get("chan.faults").value == 1
    assert world.metrics.get("chan.timeouts").value == 0


# -- size-memoised envelopes -------------------------------------------------


def test_request_envelope_size_matches_live_walk():
    """The precomputed envelope constants must mirror encoded_size
    exactly — accounting (and so transfer delays) must not shift by a
    byte when the memoised path is used."""
    from repro.sim.rpc import _request_base, _request_size
    from repro.sim.serde import encoded_size

    for method, src, args in [
        ("echo", "client", {"x": 17}),
        ("lookup", "gls-node-3", {"oid": "ab" * 16, "hops": 4}),
        ("insert", "h", {}),
        ("püsh", "host-ü", {"blob": b"\x00" * 100, "names": ["a", "bb"]}),
    ]:
        request = {"id": 12345, "method": method, "args": args,
                   "src": src}
        assert _request_size(method, src, encoded_size(args)) \
            == encoded_size(request), (method, src, args)
        # The per-(client, method) memoised base must agree, on the
        # cold miss and on the cached probe alike.
        cache = {}
        for _ in range(2):
            assert _request_base(cache, method, src) + encoded_size(args) \
                == encoded_size(request), (method, src, args)


def test_reply_envelope_size_matches_live_walk():
    from repro.sim.rpc import _reply_size
    from repro.sim.serde import encoded_size

    ok_reply = {"id": 7, "ok": True, "value": {"status": 200, "n": 3}}
    assert _reply_size(ok_reply) == encoded_size(ok_reply)
    err_reply = {"id": 8, "ok": False,
                 "error": ("ValueError", "deliberate")}
    assert _reply_size(err_reply) == encoded_size(err_reply)
    # Malformed request: the echoed id may be None — the helper must
    # fall back to the honest walk rather than charging an int's size.
    none_id = {"id": None, "ok": False, "error": ("NoSuchMethod", "x")}
    assert _reply_size(none_id) == encoded_size(none_id)


def test_udp_retry_resends_same_sized_envelope(world):
    """A retried call re-sends an envelope of identical wire size (the
    args are measured once; only the int id changes)."""
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c0/m0/s1")
    # No server at the port: every attempt times out and retries.
    client = UdpRpcClient(a, timeout=0.2, retries=2)
    meter = world.network.meter

    def caller():
        try:
            yield from client.call(b, 5300, "echo", {"text": "hello"})
        except RpcTimeout:
            return "timed out"

    before = meter.total_bytes
    proc = a.spawn(caller())
    assert world.run_until(proc, limit=100) == "timed out"
    sent = meter.total_bytes - before
    assert sent % 3 == 0, "three identical attempts must charge equally"
    assert client.retries_sent == 2


# -- pooled guard deadlines --------------------------------------------------


def test_udp_send_failure_does_not_leak_waiter(world):
    # Regression: a synchronous send_to failure (socket destroyed by a
    # crash, no restart yet) used to leave the fresh waiter registered
    # in _pending, where the next _ensure_open sweep would fail an
    # event nobody waits on.
    from repro.sim.transport import TransportError

    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("node", "r0/c0/m0/s1")
    client = UdpRpcClient(a, timeout=0.5, retries=1)
    outcome = []

    def caller():
        try:
            yield from client.call(b, 5300, "lookup", {"key": "x"})
        except TransportError:
            outcome.append("send failed")

    a.crash()  # closes the client's socket; host stays down
    world.sim.process(caller())  # survives: not registered with host a
    world.run()
    assert outcome == ["send failed"]
    assert client._pending == {}
    assert client.deadline_pool.live == 0


def test_udp_crash_restart_mid_retry_recovers(world):
    # Regression: _ensure_open ran only once per call, so a crash +
    # restart while the first attempt's deadline was pending made the
    # retry loop raise against the destroyed socket instead of
    # re-opening and retrying.
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("node", "r0/c0/m0/s1")
    client = UdpRpcClient(a, timeout=0.5, retries=2)
    result = []

    def caller():
        value = yield from client.call(b, 5300, "lookup", {"key": "ab"})
        result.append((value, world.now))

    world.sim.process(caller())  # survives the crash below

    def chaos():
        yield world.sim.timeout(0.2)
        a.crash()
        a.restart()
        # The server comes up before the first attempt's deadline, so
        # the *second* attempt (sent on a re-opened socket) succeeds.
        _udp_server(world, b)

    proc = world.sim.process(chaos())
    world.run_until(proc, limit=100)
    world.run()
    assert result and result[0][0] == {"found": "AB"}
    assert client.retries_sent == 1
    assert client._pending == {}


def test_udp_server_stop_mid_serve_is_not_counted(world):
    # Regression: _reply incremented requests_served even when stop()
    # had closed the socket, drifting served-vs-answered accounting.
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("node", "r0/c0/m0/s1")
    server = UdpRpcServer(b, 5300)
    server.register("quick", lambda ctx, args: "ok")

    def slow(ctx, args):
        yield world.sim.timeout(1.0)
        return "late"

    server.register("slow", slow)
    server.start()
    client = UdpRpcClient(a, timeout=0.3, retries=1)
    outcome = []

    def caller():
        value = yield from client.call(b, 5300, "quick", {})
        outcome.append(value)
        try:
            yield from client.call(b, 5300, "slow", {})
        except RpcTimeout:
            outcome.append("timed out")

    def stopper():
        yield world.sim.timeout(0.5)
        server.stop()

    proc = a.spawn(caller())
    world.sim.process(stopper())
    world.run_until(proc, limit=100)
    world.run()
    assert outcome == ["ok", "timed out"]
    # One reply actually went out (the quick call); the slow reply was
    # unsendable after stop() and must not count as served.
    assert server.requests_served == 1


def test_udp_generator_handler_is_served_like_a_channel_request(world):
    """A datagram's handler runs in the arrival's frame: one that
    answers from memory is no process, one that waits becomes one only
    from its wait, and either way the host holds nothing afterwards."""
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("node", "r0/c0/m0/s1")
    server = UdpRpcServer(b, 5300)
    owned = []

    def from_memory(ctx, args):
        owned.append(len(b._processes))
        return "cached"
        yield  # pragma: no cover - a generator function that never waits

    def waits(ctx, args):
        owned.append(len(b._processes))
        yield world.sim.timeout(0.05)
        owned.append(len(b._processes))
        return "waited"

    server.register("cached", from_memory)
    server.register("waits", waits)
    server.start()
    client = UdpRpcClient(a)

    def caller():
        yield world.sim.timeout(0.1)     # the serve loop is up
        resident = len(b._processes)
        events = world.sim.events_processed
        first = yield from client.call(b, 5300, "cached", {})
        cached_events = world.sim.events_processed - events
        events = world.sim.events_processed
        second = yield from client.call(b, 5300, "waits", {})
        waited_events = world.sim.events_processed - events
        return resident, first, second, cached_events, waited_events

    resident, first, second, cached, waited = world.run_until(
        a.spawn(caller()), limit=100)
    assert (first, second) == ("cached", "waited")
    assert owned == [resident, resident, resident + 1]
    # Arrival, reply arrival, the caller's waiter; the handler that
    # waits adds only the timer it waits on.
    assert (cached, waited) == (3, 4)
    assert len(b._processes) == resident
    assert server.requests_served == 2


# -- forwarded datagram requests ---------------------------------------------


def _relay(world, host, next_host, port=5300):
    """A server that passes every ``lookup`` on to ``next_host``."""
    server = UdpRpcServer(host, port)
    server.register("lookup", lambda ctx, args: rpc.Forward(
        next_host, port, "lookup", dict(args, relayed=True)))
    server.start()
    return server


def test_a_forward_is_answered_straight_to_the_caller(world):
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("relay", "r0/c1/m0/s0")
    c = world.host("node", "r1/c0/m0/s0")
    relay = _relay(world, b, c)
    sources = []
    last = UdpRpcServer(c, 5300)

    def answer(ctx, args):
        sources.append(ctx.src_host)
        return sorted(args)

    last.register("lookup", answer)
    last.start()
    client = UdpRpcClient(a)
    world.run()
    resident = len(b._processes)
    events = world.sim.events_processed
    messages = world.network.meter.total_messages
    value = world.run_until(a.start(client.call(b, 5300, "lookup",
                                                {"key": "x"})), limit=100)
    assert value == ["key", "relayed"]
    assert sources == ["client"]   # the caller, not the relay
    # Request, forward and reply arrivals, then the caller's waiter.
    assert world.sim.events_processed - events == 4
    assert world.network.meter.total_messages - messages == 3
    assert (relay.requests_served, last.requests_served) == (1, 1)
    assert len(b._processes) == resident


def test_a_lost_forward_is_recovered_by_the_callers_retry(world):
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("relay", "r0/c1/m0/s0")
    c = world.host("node", "r1/c0/m0/s0")
    _relay(world, b, c)
    _udp_server(world, c)
    client = UdpRpcClient(a, timeout=1.0, retries=2)
    c.crash()   # the first forward is lost on its way to a dead host

    def revive():
        yield world.sim.timeout(0.5)
        c.restart()
        _udp_server(world, c)

    world.sim.process(revive())
    value = world.run_until(a.start(client.call(b, 5300, "lookup",
                                                {"key": "x"})), limit=100)
    assert value == {"found": "X"}
    assert client.retries_sent == 1
    world.run()
    assert world.sim.heap_size == 0


def test_a_channel_server_answers_a_forward_with_a_fault(world):
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c0/m0/s1")
    server = RpcServer(b, 7000)
    server.register("lookup", lambda ctx, args: rpc.Forward(a, 7000,
                                                            "lookup", args))
    server.start()

    def caller():
        try:
            yield from rpc.call(a, b, 7000, "lookup", {})
        except RpcFault as fault:
            return fault.kind

    assert world.run_until(a.spawn(caller()), limit=100) == "TypeError"


# -- a stopped datagram service ----------------------------------------------


def test_closing_a_udp_socket_fails_its_parked_receiver(world):
    # Regression: close() left a recv() parked forever.
    a = world.host("node", "r0/c0/m0/s0")
    socket = a.udp_socket(5300)
    outcome = []

    def receiver():
        try:
            yield socket.recv()
        except TransportError as exc:
            outcome.append(str(exc))

    world.sim.process(receiver())
    world.run()
    socket.close()
    world.run()
    assert outcome == ["socket is closed"]
    socket.close()   # idempotent
    assert a._udp_ports == {}


def test_udp_server_start_stop_cycles_leave_nothing_running(world):
    # Regression: each stop() left its serve loop parked on the closed
    # socket, so five cycles left five loops with the host.
    b = world.host("node", "r0/c0/m0/s1")
    world.run()
    resident, heap = len(b._processes), world.sim.heap_size
    server = _udp_server(world, b)
    for _cycle in range(5):
        world.run()
        server.stop()
        server.start()
    world.run()
    assert len(b._processes) == resident + 1   # the live server's loop
    server.stop()
    client = UdpRpcClient(b)
    client.close()
    world.run()
    assert len(b._processes) == resident
    assert world.sim.heap_size == heap


def test_udp_server_stopped_before_its_loop_runs_restarts(world):
    # Regression: the first loop, not yet started when stop() cleared
    # the server's socket, ended the run with AttributeError.
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("node", "r0/c0/m0/s1")
    server = _udp_server(world, b)
    server.stop()
    world.run()
    server.start()
    client = UdpRpcClient(a)
    value = world.run_until(a.start(client.call(b, 5300, "lookup",
                                                {"key": "ok"})), limit=100)
    assert value == {"found": "OK"}


# -- a payload that is not an RPC envelope ----------------------------------


def test_udp_server_drops_a_payload_that_is_no_request(world):
    # Regression: one "junk" datagram raised AttributeError out of the
    # serve loop and ended the whole run.
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("node", "r0/c0/m0/s1")
    server = _udp_server(world, b)
    rogue = a.udp_socket()
    client = UdpRpcClient(a)

    def caller():
        for junk in ("junk", ["id", 1], None):
            rogue.send_to(b, 5300, junk)
        yield world.sim.timeout(0.1)
        value = yield from client.call(b, 5300, "lookup", {"key": "ok"})
        return value

    assert world.run_until(a.spawn(caller()), limit=100) == {"found": "OK"}
    assert server.requests_served == 1   # the junk was never answered


def test_udp_client_drops_a_payload_that_is_no_reply(world):
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("node", "r0/c0/m0/s1")
    _udp_server(world, b)
    rogue = b.udp_socket()
    client = UdpRpcClient(a)

    def caller():
        port = client._socket.port
        for junk in ("junk", {"id": [1]}, {"id": 10 ** 9, "ok": True}):
            rogue.send_to(a, port, junk)
        yield world.sim.timeout(0.1)
        value = yield from client.call(b, 5300, "lookup", {"key": "ok"})
        return value

    assert world.run_until(a.spawn(caller()), limit=100) == {"found": "OK"}


def test_channel_server_answers_a_payload_that_is_no_request(world):
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c0/m0/s1")
    _echo_server(world, b)

    def client():
        conn = yield from a.connect(b, 7000)
        conn.send("junk")
        fault = yield conn.recv()
        conn.send({"id": 1, "method": ["echo"]})   # no method name
        unknown = yield conn.recv()
        conn.send({"id": 2, "method": "echo", "args": {"text": "still up"},
                   "src": a.name})
        reply = yield conn.recv()
        conn.close()
        return fault, unknown, reply

    fault, unknown, reply = world.run_until(a.spawn(client()), limit=100)
    assert fault == {"id": None, "ok": False,
                     "error": ("MalformedRequest", "not an RPC envelope")}
    assert unknown == {"id": 1, "ok": False,
                       "error": ("NoSuchMethod", ["echo"])}
    assert reply == {"id": 2, "ok": True, "value": "still up"}


def test_channel_dispatcher_drops_a_payload_that_is_no_reply(world):
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c0/m0/s1")
    listener = b.listen(7000)

    def impostor():
        conn = yield listener.accept()
        request = yield conn.recv()
        conn.send("junk")
        conn.send({"id": request["id"], "ok": False, "error": "no pair"})
        request = yield conn.recv()
        conn.send({"id": request["id"], "ok": True, "value": "answered"})

    def client():
        channel = yield from RpcChannel.open(a, b, 7000)
        try:
            yield from channel.call("first", {})
        except RpcFault as fault:
            first = fault.kind
        value = yield from channel.call("second", {})
        return first, value

    b.spawn(impostor())
    assert world.run_until(a.spawn(client()), limit=100) \
        == ("RpcError", "answered")


def test_udp_guarded_calls_pool_timer_churn(world):
    # The tentpole's acceptance numbers: guarded calls must no longer
    # cost one kernel timer each.  An echo round trip schedules two
    # delivery timers; the guard contribution drops from 1 per call to
    # ~timeout/RTT per call via the pool.
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("node", "r0/c0/m0/s1")  # same site: ~0.7ms RTT
    _udp_server(world, b)
    client = UdpRpcClient(a)
    calls = 200

    def run():
        for index in range(calls):
            yield from client.call(b, 5300, "lookup", {"key": "k%d" % index})

    before = world.sim.timers_scheduled
    events_before = world.sim.events_processed
    proc = a.spawn(run())
    world.run_until(proc, limit=1000)
    scheduled = world.sim.timers_scheduled - before
    # Two delivery timers per round trip + well under one guard arm
    # per call (the pool re-arms roughly once per timeout interval).
    assert scheduled / calls < 2.2, scheduled
    # The inline inbox hand-off: no run-queue event per datagram.
    events = world.sim.events_processed - events_before
    assert events / calls < 4.0, events
    pool = client.deadline_pool
    assert pool.armed_total == calls
    assert pool.timer_arms < calls / 10
    assert pool.live == 0
    world.run()
    assert len(pool) == 0
    assert world.sim.heap_size == 0
    assert world.sim.stale_timer_count == 0


#: What the per-call-guard-timer client (one kernel timer armed per
#: attempt, cancelled on reply) produced for the run below, recorded
#: before that reference path was retired: sha256 of ``repr`` of the
#: completion trail, the final clock, retries sent, calls timed out.
PER_CALL_GUARDS_UNDER_LOSS = (
    "0bd4715af1a60198aef8609da5bbe33447a07d01782a1f21bf9f2428ace25e5e",
    150.31943933333397, 253, 41)


def test_pooled_and_per_call_guards_are_byte_identical_under_loss(world):
    # The pooled client must replay *exactly* like the per-call-timer
    # reference run — same completion times, same retry and timeout
    # counts — even when heavy loss exercises every expiry path.  (The
    # broader trace-replay pin lives in
    # tests/workloads/test_scenario_engine.py.)
    w = World(topology=Topology.balanced(2, 2, 2, 2), seed=3)
    w.network.params.loss[Level.WORLD] = 0.5
    a = w.host("client", "r0/c0/m0/s0")
    b = w.host("node", "r1/c0/m0/s0")
    _udp_server(w, b)
    client = UdpRpcClient(a, timeout=0.4, retries=3)
    trail = []

    def caller():
        for index in range(150):
            try:
                value = yield from client.call(b, 5300, "lookup",
                                               {"key": "k%d" % index})
                trail.append((w.now, "ok", value["found"]))
            except RpcTimeout:
                trail.append((w.now, "timeout", index))

    proc = a.spawn(caller())
    w.run_until(proc, limit=1e6)
    pooled = (hashlib.sha256(repr(trail).encode()).hexdigest(), w.now,
              client.retries_sent, client.timeouts_hit)
    assert pooled == PER_CALL_GUARDS_UNDER_LOSS
    assert sum(1 for _t, outcome, _v in trail if outcome == "ok") == 109


def test_channel_timeouts_share_the_simulator_pool(world):
    from repro.sim.deadlines import shared_pool

    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c0/m0/s1")
    _echo_server(world, b)
    pool = shared_pool(world.sim)

    def client():
        channel = yield from RpcChannel.open(a, b, 7000)
        for i in range(20):
            yield from channel.call("add", {"a": i, "b": 1}, timeout=5.0)
        channel.close()

    armed_before = pool.armed_total
    proc = a.spawn(client())
    world.run_until(proc, limit=100)
    # One guard per call plus the connect guard, all pooled.
    assert pool.armed_total - armed_before == 21
    assert pool.live == 0
    world.run()
    assert len(pool) == 0


# -- the accept side releases what it accepted ------------------------------


def test_served_connections_are_released_at_end_of_stream(world):
    """Regression: the serve loop returned on end-of-stream without
    closing its own end, so every connection a server ever accepted
    (and its inbox) stayed with the host for life — 3 000 one-shot
    calls left 3 010 entries behind."""
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c0/m0/s1")
    _echo_server(world, b)
    world.run()
    baseline = (len(b._connections), len(b._processes))
    cycles = 1000

    def client():
        for index in range(cycles):
            value = yield from rpc.call(a, b, 7000, "echo", {"text": index})
            assert value == index

    world.run_until(a.spawn(client()), limit=1e6)
    world.run()                         # the last FIN lands
    assert (len(b._connections), len(b._processes)) == baseline
    assert (len(a._connections), len(a._processes)) == (0, 0)


# -- ChannelPool: one channel per peer endpoint per address space -----------


def _pool_bed(world):
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c1/m0/s0")
    _echo_server(world, b)
    return a, b, ChannelPool(a)


def test_pool_hands_out_the_one_open_channel(world):
    a, b, pool = _pool_bed(world)
    _echo_server(world, b, port=7001)

    def client():
        first = yield from pool.channel(b, 7000)
        connects = world.sim.events_processed
        second = yield from pool.channel(b, 7000)
        assert world.sim.events_processed == connects   # no kernel event
        other_port = yield from pool.channel(b, 7001)
        value = yield from second.call("echo", {"text": "hi"})
        return first is second, other_port is first, value

    assert world.run_until(a.spawn(client()), limit=100) \
        == (True, False, "hi")
    assert (pool.opens, pool.reuses, pool.open_channels) == (2, 1, 2)
    assert len(b._connections) == 2


def test_pool_concurrent_opens_share_one_handshake(world):
    a, b, pool = _pool_bed(world)
    got = []

    def caller(text):
        channel = yield from pool.channel(b, 7000)
        got.append(channel)
        value = yield from channel.call("echo", {"text": text})
        return value

    callers = [a.spawn(caller(index)) for index in range(4)]
    world.run()
    assert [proc.value for proc in callers] == [0, 1, 2, 3]
    assert all(channel is got[0] for channel in got)
    assert (pool.opens, pool.reuses) == (1, 3)
    assert len(b._connections) == 1 and not pool.flights.inflight


def test_pool_failed_open_fails_its_followers_and_is_forgotten(world):
    from repro.sim.transport import ConnectRefused

    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r0/c1/m0/s0")
    pool = ChannelPool(a)

    def caller():
        try:
            yield from pool.channel(b, 7000)
        except ConnectRefused:
            return "refused"

    callers = [a.spawn(caller()) for _ in range(3)]
    world.run()
    assert [proc.value for proc in callers] == ["refused"] * 3
    assert (pool.opens, pool.open_channels) == (0, 0)
    assert not pool.flights.inflight
    _echo_server(world, b)

    def retry():
        channel = yield from pool.channel(b, 7000)
        value = yield from channel.call("echo", {"text": "up"})
        return value

    assert world.run_until(a.spawn(retry()), limit=100) == "up"
    assert pool.opens == 1


def test_pool_leader_killed_mid_open_releases_followers(world):
    from repro.sim.transport import ConnectionClosed

    a, b, pool = _pool_bed(world)

    def leader():
        yield from pool.channel(b, 7000)

    def follower():
        try:
            yield from pool.channel(b, 7000)
        except ConnectionClosed:
            channel = yield from pool.channel(b, 7000)
            value = yield from channel.call("echo", {"text": "again"})
            return value

    leading = a.spawn(leader())
    following = a.spawn(follower())
    world.run(until=world.now + 1e-6)    # both parked on the open
    assert pool.flights.inflight
    leading.kill()
    assert world.run_until(following, limit=100) == "again"
    assert (pool.opens, pool.open_channels) == (1, 1)


def _reopen_after(world, pool, a, b, disturb):
    """Open and use the pooled channel, ``disturb`` it, then have
    three concurrent callers use the pool again."""
    def warm():
        channel = yield from pool.channel(b, 7000)
        yield from channel.call("echo", {"text": "warm"})
        return channel

    old = world.run_until(a.spawn(warm()), limit=100)
    disturb(old)
    got = []

    def caller(text):
        channel = yield from pool.channel(b, 7000)
        got.append(channel)
        value = yield from channel.call("echo", {"text": text})
        return value

    callers = [a.spawn(caller(index)) for index in range(3)]
    world.run()
    assert [proc.value for proc in callers] == [0, 1, 2]
    assert got[0] is not old and all(ch is got[0] for ch in got)
    assert pool.opens == 2               # reopened exactly once
    assert pool.open_channels == 1
    return old


def test_pool_reopens_once_after_server_crash_and_restart(world):
    a, b, pool = _pool_bed(world)

    def crash_and_restart(_channel):
        b.crash()
        b.restart()
        _echo_server(world, b)

    old = _reopen_after(world, pool, a, b, crash_and_restart)
    assert old.conn.closed               # the dead one was not left open
    assert len(a._connections) == 1


def test_pool_reopens_once_after_partition_heal(world):
    from repro.sim.transport import ConnectionClosed

    a, b, pool = _pool_bed(world)

    def partition_and_heal(channel):
        network = world.network
        cut_off = a.site.parent.parent    # the client's country
        network.partition_domain(cut_off)

        def try_through():
            try:
                yield from channel.call("echo", {"text": "lost"})
            except ConnectionClosed:
                return "broken"

        assert world.run_until(a.spawn(try_through()),
                               limit=100) == "broken"
        network.heal_domain(cut_off)

    _reopen_after(world, pool, a, b, partition_and_heal)


def test_pool_discard_of_a_replaced_channel_spares_its_successor(world):
    a, b, pool = _pool_bed(world)

    def client():
        old = yield from pool.channel(b, 7000)
        pool.discard(old)
        new = yield from pool.channel(b, 7000)
        pool.discard(old)                # a late report about the old one
        again = yield from pool.channel(b, 7000)
        value = yield from again.call("echo", {"text": "alive"})
        return new is again, value

    assert world.run_until(a.spawn(client()), limit=100) == (True, "alive")
    assert pool.opens == 2


def test_pool_close_closes_every_channel(world):
    from repro.sim.transport import ConnectionClosed

    a, b, pool = _pool_bed(world)
    _echo_server(world, b, port=7001)
    world.run()
    baseline = (len(b._connections), len(b._processes))

    def client():
        first = yield from pool.channel(b, 7000)
        second = yield from pool.channel(b, 7001)
        yield from second.call("echo", {"text": "x"})
        in_flight = world.sim.process(
            first.call("slow", {"delay": 5.0}))
        yield world.sim.timeout(0.5)
        pool.close()
        try:
            yield in_flight
        except ConnectionClosed:
            return first.conn.closed and second.conn.closed

    assert world.run_until(a.spawn(client()), limit=100) is True
    world.run()
    assert pool.open_channels == 0
    assert (len(a._connections), len(a._processes)) == (0, 0)
    assert (len(b._connections), len(b._processes)) == baseline


def test_pool_counters_bind_to_registry(world):
    from repro.analysis.telemetry import MetricsRegistry

    a, b, pool = _pool_bed(world)
    registry = MetricsRegistry()
    pool.bind_metrics(registry, "pool")

    def client():
        for _ in range(3):
            yield from pool.channel(b, 7000)

    world.run_until(a.spawn(client()), limit=100)
    assert registry.get("pool.opens").value == 1
    assert registry.get("pool.reuses").value == 2
    assert registry.get("pool.open_channels").value == 1
