"""Request/response messaging over both transports.

Two flavours, matching the paper's split:

* :class:`RpcServer` / :func:`call` / :class:`RpcChannel` — RPC over
  reliable connections, used by Globe Object Servers, HTTPDs, the GNS
  naming authority and moderator tools.  Channels can be wrapped by a
  security layer (see ``channel_factory`` / ``channel_wrapper``): the
  TLS module provides wrappers that perform an authenticated handshake
  and attach the peer's verified identity to every request.  Long-lived
  components keep their channels in a :class:`ChannelPool`, one open
  channel per peer endpoint per address space.

* :class:`UdpRpcServer` / :class:`UdpRpcClient` — RPC over datagrams
  with timeout/retry, used by the Globe Location Service (§6.3 of the
  paper: "For efficiency reasons this is based on UDP").

A datagram handler may answer with a :class:`Forward` instead of a
value: the server passes the request on to another server as one
datagram that keeps the caller's request id, ``src`` and return
address, so whichever server finally answers replies straight to the
caller.  The forwarding server keeps nothing — no process, no pending
call, no deadline — and a forward that is lost is recovered by the
caller's own retry, exactly like a lost first request.

Handlers are registered per method name and receive
``(context, args)``.  A handler may be a plain function or a generator
(simulation process), so servers can perform further simulated I/O
while serving a request.  Both servers serve a request as one
generator started in the frame that received it (``Host.start``): one
that never waits costs no kernel event beyond its arrival, one that
waits (a GLS walk, a GOS read) is a process from that wait until it
replies.  A payload that is no RPC envelope is dropped, or answered
with a fault by a channel server.

Client-side deadlines are **pooled** (:mod:`repro.sim.deadlines`):
instead of arming one guard :class:`~repro.sim.kernel.Timeout` per
call, each client registers its deadline with a pool that keeps a
single kernel timer armed for the earliest pending deadline.
:class:`UdpRpcClient` owns a pool and always adds its one fixed
``timeout``, so its deadlines expire in the order they were added —
zero kernel heap traffic per call/retry; :meth:`RpcChannel.call`
registers its mixed per-call timeouts with the simulator-wide shared
pool.  A pooled expiry fires
at exactly the ``(time, seq)`` position the per-call timer would have
occupied (each call reserves a sequence number where it used to arm a
timer), and a dead waiter's expiry passes silently — the observable
semantics of one guard timer per call, which the tests pin against
frozen per-call-timer runs.

Envelope sizes are **memoised**: request and reply envelopes have a
fixed dict shape, so their wire size is a precomputed constant plus
one measurement of the variable payload (args / value / error),
computed once per envelope and carried to the transport as an
explicit ``size=`` — the nested dict is never re-walked at a charging
point, and UDP retries re-send a same-sized envelope without
re-measuring.

Telemetry: servers, clients and channel pools keep plain-int counters
on the hot path (``requests_served``; ``calls``/``retries``/
``timeouts``/``faults``; ``opens``/``reuses``) that callers read
directly; the request path never touches an instrument object.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, Optional

from .deadlines import DeadlinePool, shared_pool
from .kernel import Event, Singleflight
from .retry import FixedRetry, RetryPolicy
from .serde import CONTAINER_ITEM_OVERHEAD, SCALAR_SIZE, encoded_size
from .transport import (Connection, ConnectionClosed, Host, TransportError,
                        UdpSocket)

__all__ = [
    "RpcError",
    "RpcTimeout",
    "RpcFault",
    "RpcContext",
    "RpcServer",
    "RpcChannel",
    "call",
    "ChannelPool",
    "Forward",
    "UdpRpcServer",
    "UdpRpcClient",
]

_request_ids = itertools.count(1)

# -- size-memoised envelopes ------------------------------------------------
#
# Every RPC envelope is a flat dict whose key strings and scalar fields
# never vary, so their encoded size is a compile-time constant; only
# the variable fields (method, src, args / value / error) need
# measuring, and each is measured exactly once per envelope.  The
# resulting size is handed to the transport as an explicit ``size=``,
# so the nested request/reply dict is never re-walked at a charging
# point (and a UDP retry re-sends a same-sized envelope without
# re-measuring the args).  The constants must mirror
# :func:`repro.sim.serde.encoded_size` exactly — tests/sim/test_rpc.py
# pins them against a live walk of real envelopes.

_ITEM = CONTAINER_ITEM_OVERHEAD
#: {"id": <int>, "method": ..., "args": ..., "src": ...}
_REQUEST_BASE = (len("id") + len("method") + len("args") + len("src")
                 + SCALAR_SIZE + 4 * 2 * _ITEM)
#: {"id": <int>, "ok": <bool>, "value"/"error": ...} (bools encode as 1)
_REPLY_OK_BASE = (len("id") + len("ok") + len("value")
                  + SCALAR_SIZE + 1 + 3 * 2 * _ITEM)
_REPLY_ERR_BASE = (len("id") + len("ok") + len("error")
                   + SCALAR_SIZE + 1 + 3 * 2 * _ITEM)


def _request_size(method: str, src: str, args_size: int) -> int:
    """Encoded size of a request envelope, measuring only ``method``
    and ``src`` (``args`` was measured once by the caller)."""
    return (_REQUEST_BASE + encoded_size(method) + encoded_size(src)
            + args_size)


def _request_base(cache: Dict[str, int], method: str, src: str) -> int:
    """The fixed part of a request envelope's size for one
    (client, method) pair, measured once and memoised.

    A client's ``src`` never changes and its method-name vocabulary is
    tiny, so per-call envelope sizing reduces to one dict probe plus
    the walk of the variable ``args``.
    """
    base = cache.get(method)
    if base is None:
        base = _REQUEST_BASE + encoded_size(method) + encoded_size(src)
        cache[method] = base
    return base


def _reply_size(reply: dict) -> int:
    """Encoded size of a reply envelope, walking only the payload."""
    if type(reply.get("id")) is not int:
        # Malformed request: the echoed id may be None — fall back to
        # the honest full walk rather than special-casing rarities.
        return encoded_size(reply)
    if reply["ok"]:
        return _REPLY_OK_BASE + encoded_size(reply["value"])
    return _REPLY_ERR_BASE + encoded_size(reply["error"])


class RpcError(Exception):
    """Base class for RPC failures."""


class RpcTimeout(RpcError):
    """No reply arrived within the deadline (after retries, for UDP)."""


class RpcFault(RpcError):
    """The remote handler raised; carries the remote error description."""

    def __init__(self, kind: str, message: str):
        super().__init__("%s: %s" % (kind, message))
        self.kind = kind
        self.message = message


class _DeadlineExpired(Exception):
    """Internal: a call's guard timer fired before the reply arrived."""


def _expire_waiter(waiter: Event) -> None:
    """Fail a reply waiter whose deadline expired.

    The failure is pre-defused: if the waiter was already answered, or
    the waiting process died in the meantime (host crash), the expiry
    passes silently instead of crashing the simulation.
    """
    if not waiter.triggered:
        waiter.defuse()
        waiter.fail(_DeadlineExpired())


class RpcContext:
    """Per-request context handed to server handlers."""

    __slots__ = ("src_host", "peer_principal", "transport")

    def __init__(self, src_host: str, peer_principal: Optional[str] = None,
                 transport: str = "tcp"):
        self.src_host = src_host
        #: Authenticated identity of the caller, if the channel was
        #: wrapped by a security layer; ``None`` on plain channels.
        self.peer_principal = peer_principal
        self.transport = transport

    def __repr__(self) -> str:
        return ("RpcContext(src=%s, principal=%s)"
                % (self.src_host, self.peer_principal))


class Forward:
    """A datagram handler's answer: pass the request on to
    ``dst:port`` as a call of ``method`` with ``args``, for the next
    server to answer the caller directly (see the module docstring).
    A connection server answers a ``Forward`` with a fault."""

    __slots__ = ("dst", "port", "method", "args")

    def __init__(self, dst: Host, port: int, method: str, args: dict):
        self.dst = dst
        self.port = port
        self.method = method
        self.args = args


def _answer(handlers: Dict[str, Callable], ctx: RpcContext,
            request: dict) -> Generator[Event, Any, Any]:
    """The reply envelope to ``request``, from the handler it names —
    or, on a datagram server, the handler's :class:`Forward`."""
    request_id = request.get("id")
    method = request.get("method", "")
    handler = handlers.get(method) if type(method) is str else None
    if handler is None:
        return {"id": request_id, "ok": False,
                "error": ("NoSuchMethod", method)}
    try:
        value = handler(ctx, request.get("args", {}))
        if hasattr(value, "send"):  # generator: simulate it
            value = yield from value
        if type(value) is Forward:
            if ctx.transport == "udp":
                return value
            raise TypeError("only a datagram server forwards a request")
    except Exception as exc:  # noqa: BLE001 - faults cross the wire
        return {"id": request_id, "ok": False,
                "error": (type(exc).__name__, str(exc))}
    return {"id": request_id, "ok": True, "value": value}


def _settle(pending: Dict[int, Event], reply: Any) -> None:
    """Hand ``reply`` to the call waiting for it; drop a payload that
    is no reply envelope or that no call waits for (a late reply)."""
    if type(reply) is not dict or type(reply.get("id")) is not int:
        return
    waiter = pending.pop(reply["id"], None)
    if waiter is None or waiter.triggered:
        return
    if reply.get("ok"):
        waiter.succeed(reply.get("value"))
        return
    error = reply.get("error", ("RpcError", "?"))
    kind, message = (error if type(error) in (tuple, list) and len(error) == 2
                     else ("RpcError", repr(error)))
    waiter.fail(RpcFault(kind, message))


# ---------------------------------------------------------------------------
# Connection-oriented RPC
# ---------------------------------------------------------------------------


class RpcServer:
    """Serves named methods on a listening port.

    There is one way a request runs: the connection's serve loop —
    itself resumed inside the request's arrival event — starts
    ``_serve_request`` in its own frame (:meth:`~repro.sim.transport
    .Host.start`).  A request that finishes without waiting has replied
    by then: no process, no kernel event beyond the arrival.  One that
    yields (for a worker of a ``concurrency``-bounded server, its
    ``service_time``, or whatever its handler waits for) is a process
    of the host from there — killed if the host crashes — and the loop
    returns to ``recv()`` at once, so later requests on the same
    connection are never queued behind it.

    ``channel_factory`` (optional) post-processes each accepted
    connection — it is a function ``conn -> generator -> wrapped_conn``
    used by the TLS layer to run the server side of a handshake.  The
    wrapped connection must offer ``send/recv/close`` and may expose
    ``peer_principal``.
    """

    def __init__(self, host: Host, port: int,
                 channel_factory: Optional[Callable] = None,
                 concurrency: Optional[int] = None,
                 service_time: float = 0.0):
        """``concurrency`` bounds in-flight requests (a worker pool);
        ``service_time`` charges fixed CPU per request while holding a
        worker.  Together they make a server a finite resource, so
        offered load beyond ``concurrency / service_time`` requests/s
        queues — the saturation behaviour replication relieves."""
        self.host = host
        self.port = port
        self.channel_factory = channel_factory
        self.handlers: Dict[str, Callable] = {}
        self.requests_served = 0
        self.busy_time = 0.0
        self.service_time = service_time
        self._listener = None
        self._semaphore = (host.sim.resource(concurrency)
                           if concurrency else None)

    def register(self, method: str, handler: Callable) -> None:
        self.handlers[method] = handler

    def start(self) -> None:
        self._listener = self.host.listen(self.port)
        self.host.spawn(self._accept_loop(self._listener))

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.close()

    def _accept_loop(self, listener) -> Generator:
        while True:
            try:
                conn = yield listener.accept()
            except TransportError:
                return
            if listener.closed:
                # Closed between the accept firing and this resume:
                # the just-accepted connection would otherwise leak,
                # leaving its client end open forever.
                conn.close()
                return
            self.host.spawn(self._serve_connection(conn))

    def _serve_connection(self, conn: Connection) -> Generator:
        if self.channel_factory is not None:
            try:
                conn = yield from self.channel_factory(conn)
            except Exception:  # noqa: BLE001 - bad certs, lost peer, ...
                # Handshake failures terminate service.
                conn.close()
                return
        host = self.host
        while True:
            try:
                request = yield conn.recv()
            except ConnectionClosed:
                # End of stream: release this end too, or the accepted
                # connection would stay with the host for the rest of
                # its life.
                conn.close()
                return
            # Not `yield from`: that would hold every later request
            # on this connection behind one that waits (an HTTPD's
            # shared channel to its object server, behind a GOS read).
            host.start(self._serve_request(conn, request))

    def _serve_request(self, conn, request: dict) -> Generator:
        if self._semaphore is not None:
            yield self._semaphore.acquire()
        try:
            if self.service_time > 0.0:
                self.busy_time += self.service_time
                yield self.host.sim.timeout(self.service_time)
            if type(request) is dict:
                ctx = RpcContext(
                    src_host=request.get("src", "?"),
                    peer_principal=getattr(conn, "peer_principal", None))
                reply = yield from _answer(self.handlers, ctx, request)
            else:  # no RPC envelope, so no id to answer to
                reply = {"id": None, "ok": False, "error": (
                    "MalformedRequest", "not an RPC envelope")}
            self.requests_served += 1
            try:
                conn.send(reply, size=_reply_size(reply))
            except ConnectionClosed:
                pass
        finally:
            if self._semaphore is not None:
                self._semaphore.release()


class RpcChannel:
    """A client-side channel multiplexing many calls on one connection.

    Reusing one connection amortises connect (and TLS handshake) costs,
    which is how long-lived GDN components talk to each other.
    Out-of-order replies are matched to callers by request id.
    """

    def __init__(self, host: Host, conn):
        self.host = host
        self.conn = conn
        self.sim = host.sim
        self.calls = 0
        self.faults = 0
        self._pending: Dict[int, Event] = {}
        self._size_cache: Dict[str, int] = {}  # method -> envelope base
        # Guarded calls register their mixed per-call timeouts with the
        # simulator-wide pool: one armed kernel timer for all of them.
        self._deadlines = shared_pool(host.sim)
        self._dispatcher = host.spawn(self._dispatch_loop())

    @classmethod
    def open(cls, host: Host, dst: Host, port: int,
             channel_wrapper: Optional[Callable] = None
             ) -> Generator[Event, Any, "RpcChannel"]:
        """``channel = yield from RpcChannel.open(host, dst, port)``."""
        conn = yield from host.connect(dst, port)
        if channel_wrapper is not None:
            try:
                conn = yield from channel_wrapper(conn)
            except Exception:
                conn.close()  # a failed handshake leaves nothing open
                raise
        return cls(host, conn)

    def _dispatch_loop(self) -> Generator:
        while True:
            try:
                reply = yield self.conn.recv()
            except ConnectionClosed:
                for event in self._pending.values():
                    if not event.triggered:
                        event.fail(ConnectionClosed("channel closed"))
                return
            _settle(self._pending, reply)

    def call(self, method: str, args: Optional[dict] = None,
             size: Optional[int] = None, timeout: Optional[float] = None
             ) -> Generator[Event, Any, Any]:
        """``value = yield from channel.call("method", {...})``, raising
        :class:`RpcTimeout` if ``timeout`` is given and passes first."""
        request_id = next(_request_ids)
        args = args if args is not None else {}
        request = {"id": request_id, "method": method,
                   "args": args, "src": self.host.name}
        if size is None:
            size = (_request_base(self._size_cache, method, self.host.name)
                    + encoded_size(args))
        self.calls += 1
        waiter = self.sim.event()
        # A reply or failure that nobody waits for any more (the
        # caller died) passes silently; a caller that does wait has
        # the failure thrown into it all the same.
        waiter.defuse()
        self._pending[request_id] = waiter
        try:
            self.conn.send(request, size=size)
        except Exception:
            # A synchronous send failure (closed or partitioned
            # connection) means no reply can ever match this waiter.
            self._pending.pop(request_id, None)
            raise
        guard = (None if timeout is None else self._deadlines.add(
            lambda: _expire_waiter(waiter), timeout))
        try:
            value = yield waiter
        except _DeadlineExpired:
            raise RpcTimeout("%s timed out after %gs"
                             % (method, timeout)) from None
        except RpcFault:
            self.faults += 1
            raise
        finally:
            # Nothing stranded on reply, kill or error.
            if guard is not None:
                self._deadlines.cancel(guard)
            self._pending.pop(request_id, None)
        return value

    def close(self) -> None:
        """Close the channel, failing any in-flight calls.

        Callers blocked in :meth:`call` without a timeout would
        otherwise wait forever once the dispatcher is gone; they
        receive :class:`ConnectionClosed` instead.  The failures are
        pre-defused so that calls whose waiting process has already
        died (host crash) pass silently.
        """
        self.conn.close()
        if self._dispatcher.alive:
            self._dispatcher.kill()
        pending, self._pending = self._pending, {}
        for waiter in pending.values():
            if not waiter.triggered:
                waiter.defuse()
                waiter.fail(ConnectionClosed("channel closed"))


def call(src: Host, dst: Host, port: int, method: str,
         args: Optional[dict] = None, size: Optional[int] = None,
         channel_wrapper: Optional[Callable] = None,
         timeout: Optional[float] = None) -> Generator[Event, Any, Any]:
    """One-shot RPC: connect, call, close.

    ``value = yield from rpc.call(me, server, 7000, "ping", {})``
    """
    channel = yield from RpcChannel.open(src, dst, port, channel_wrapper)
    try:
        value = yield from channel.call(method, args, size=size,
                                        timeout=timeout)
    finally:
        channel.close()
    return value


class ChannelPool:
    """The open channels of one address space: one per (peer, port).

    ``channel = yield from pool.channel(remote_host, port)`` returns
    the :class:`RpcChannel` this address space has to that endpoint,
    opening it first if there is none.  What a connection costs (a
    round trip, under TLS two plus the RSA operations) is then paid
    once per peer, not once per representative or per rebind.

    * Every channel is opened through the pool's one
      ``channel_wrapper``, so a pool carries exactly one authenticated
      principal; two address spaces on one host never share a channel.
    * Concurrent requests for an endpoint that is not open share one
      handshake (:class:`~repro.sim.kernel.Singleflight`): the
      first caller opens in its own frame and later ones park behind
      it, so a caller that died meanwhile is passed over silently and
      a leader killed mid-open still releases its followers.
    * A closed or broken channel is closed and reopened on next use;
      a caller that learns of a channel's death first (its call raised
      :class:`ConnectionClosed`) closes the channel itself.

    There is no size limit and no idle timer: a pool holds at most
    (peers × ports) channels, until :meth:`close`.
    """

    def __init__(self, host: Host,
                 channel_wrapper: Optional[Callable] = None):
        self.host = host
        self.channel_wrapper = channel_wrapper
        #: Connections opened / requests answered without opening one.
        self.opens = 0
        self.reuses = 0
        self._channels: Dict[tuple, RpcChannel] = {}
        #: One open in flight per endpoint; later requests park on it.
        self.flights = Singleflight(host.sim, abandoned=ConnectionClosed)

    def channel(self, remote: Host, port: int
                ) -> Generator[Event, Any, RpcChannel]:
        """The open channel to ``remote:port``, opened if need be."""
        endpoint = (remote.name, port)
        channel = self._channels.get(endpoint)
        if channel is not None:
            conn = channel.conn
            if not (conn.closed or conn.broken):
                self.reuses += 1
                return channel
            channel.close()
        follower = self.flights.follow(endpoint)
        if follower is not None:
            self.reuses += 1
            channel = yield follower
            return channel
        channel = yield from self.flights.lead(
            endpoint, self._open(remote, port, endpoint))
        return channel

    def _open(self, remote: Host, port: int, endpoint: tuple
              ) -> Generator[Event, Any, RpcChannel]:
        channel = yield from RpcChannel.open(self.host, remote, port,
                                             self.channel_wrapper)
        self.opens += 1
        self._channels[endpoint] = channel
        return channel

    def close(self) -> None:
        """Close every open channel, failing their in-flight calls."""
        channels, self._channels = self._channels, {}
        for channel in channels.values():
            channel.close()


# ---------------------------------------------------------------------------
# Datagram RPC (used by the Globe Location Service)
# ---------------------------------------------------------------------------


class UdpRpcServer:
    """Serves named methods over datagrams.

    No connection state; each request datagram carries a request id and
    the reply is sent to the source socket — the return address, which
    a forwarded request keeps from its caller.  Lost requests, forwards
    or replies are handled by client retry.
    """

    def __init__(self, host: Host, port: int):
        self.host = host
        self.port = port
        self.handlers: Dict[str, Callable] = {}
        self.requests_served = 0
        self._socket: Optional[UdpSocket] = None

    def register(self, method: str, handler: Callable) -> None:
        self.handlers[method] = handler

    def start(self) -> None:
        self._socket = self.host.udp_socket(self.port)
        self.host.spawn(self._serve_loop(self._socket))

    def stop(self) -> None:
        if self._socket is not None:
            self._socket.close()

    def _serve_loop(self, socket: UdpSocket) -> Generator:
        while True:
            try:
                datagram = yield socket.recv()
            except TransportError:
                return
            self.host.start(self._serve(datagram))

    def _serve(self, datagram) -> Generator:
        request = datagram.payload
        if type(request) is not dict:
            return  # not an RPC envelope: dropped, like a lost datagram
        ctx = RpcContext(src_host=datagram.src_host.name, transport="udp")
        reply = yield from _answer(self.handlers, ctx, request)
        # Served only if the reply goes out: stop() or a crash may have
        # closed the socket while the handler waited.
        socket = self._socket
        if socket is None or socket.closed:
            return
        if type(reply) is Forward:
            src = request.get("src", "?")
            socket.send_to(reply.dst, reply.port,
                           {"id": request.get("id"), "method": reply.method,
                            "args": reply.args, "src": src},
                           size=_request_size(reply.method, src,
                                              encoded_size(reply.args)),
                           reply_to=datagram)
        else:
            socket.send_to(datagram.src_host, datagram.src_port, reply,
                           size=_reply_size(reply))
        self.requests_served += 1


class UdpRpcClient:
    """Datagram RPC client driven by a :class:`~repro.sim.retry
    .RetryPolicy`.

    ``timeout``/``retries`` build the legacy :class:`~repro.sim.retry
    .FixedRetry` policy (fixed timeout, immediate retries — pinned
    byte-identical against the pre-policy traces); pass ``policy=`` for
    backoff/jitter/budget disciplines such as :class:`~repro.sim.retry
    .ExponentialBackoff`.

    Every attempt is guarded by a deadline from the client's own
    :class:`~repro.sim.deadlines.DeadlinePool`, always added with the
    policy's one fixed per-attempt ``timeout``: deadlines then expire
    in the order they were added and the pool never shelves a timer,
    so a guarded attempt costs a small heap push and an O(1) cancel
    instead of any kernel heap traffic (backoff delays happen
    *between* attempts and never change the guard spacing).
    """

    def __init__(self, host: Host, timeout: float = 0.5, retries: int = 3,
                 policy: Optional[RetryPolicy] = None):
        self.host = host
        self.sim = host.sim
        if policy is None:
            policy = FixedRetry(timeout, retries)
        self.policy = policy
        self.timeout = policy.timeout
        self.retries = policy.retries
        # Plain-int accounting (retries = extra attempts actually sent;
        # timeouts = calls that exhausted the attempt cap; budget_denied
        # = retries refused by the policy's RetryBudget).
        self.retries_sent = 0
        self.timeouts_hit = 0
        self.budget_denied = 0
        #: Assign a list to record the simulation time of every retry
        #: actually sent (storm diagnosis); ``None`` keeps the hot
        #: path free of bookkeeping.
        self.retry_log: Optional[list] = None
        self.deadline_pool = DeadlinePool(host.sim, _expire_waiter)
        self._socket = host.udp_socket()
        self._pending: Dict[int, Event] = {}
        self._size_cache: Dict[str, int] = {}  # method -> envelope base
        self._jitter_rng = None  # lazily seeded from the host name
        host.spawn(self._dispatch_loop(self._socket))

    def _jitter(self):
        """The policy's per-client jitter RNG, created on first use so
        jitter-free policies (FixedRetry) never pay for one."""
        rng = self._jitter_rng
        if rng is None:
            rng = self._jitter_rng = self.policy.make_rng(self.host.name)
        return rng

    def _dispatch_loop(self, socket: UdpSocket) -> Generator:
        while True:
            try:
                datagram = yield socket.recv()
            except TransportError:
                return
            _settle(self._pending, datagram.payload)
            del datagram  # parked on recv(), the loop must not pin a reply

    def call(self, dst: Host, port: int, method: str,
             args: Optional[dict] = None
             ) -> Generator[Event, Any, Any]:
        """``value = yield from client.call(node_host, 5300, "lookup", ...)``

        Retries up to ``policy.retries`` times on timeout — pacing the
        retries by the policy's backoff schedule and charging its
        budget, if any — then raises :class:`RpcTimeout`.  Each retry
        is a fresh request id, so a late reply to an earlier attempt
        is ignored.
        """
        args = args if args is not None else {}
        # Measured once (and the constant method/src part only on the
        # first call per method); every retry re-sends a same-sized
        # envelope (the fresh id is an int like the last one).
        size = (_request_base(self._size_cache, method, self.host.name)
                + encoded_size(args))
        pool = self.deadline_pool
        policy = self.policy
        last_error: Optional[Exception] = None
        for attempt in range(1 + self.retries):
            if attempt:
                budget = policy.budget
                if budget is not None and not budget.spend(self.sim.now):
                    self.budget_denied += 1
                    break
                delay = policy.retry_delay(attempt, self._jitter)
                if delay > 0.0:
                    yield self.sim.timeout(delay)
            request_id = next(_request_ids)
            request = {"id": request_id, "method": method,
                       "args": args, "src": self.host.name}
            waiter = self.sim.event()
            self._pending[request_id] = waiter
            try:
                self._socket.send_to(dst, port, request, size=size)
            except Exception:
                # A synchronous send failure (socket closed by a crash
                # or HostDown) means no reply can ever match this
                # waiter: it must not stay registered in _pending.
                self._pending.pop(request_id, None)
                raise
            if attempt:
                # Counted only once the datagram is actually away: a
                # dead socket used to be charged as a sent retry.
                self.retries_sent += 1
                if self.retry_log is not None:
                    self.retry_log.append(self.sim.now)
            guard = pool.add(waiter, self.timeout)
            try:
                value = yield waiter
            except _DeadlineExpired:
                self._pending.pop(request_id, None)
                last_error = RpcTimeout(
                    "%s to %s:%d timed out" % (method, dst.name, port))
                continue
            finally:
                pool.cancel(guard)  # nothing pending behind a reply
            return value
        self.timeouts_hit += 1
        raise last_error

    def close(self) -> None:
        self._socket.close()
