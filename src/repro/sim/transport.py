"""Hosts and transport: UDP-like datagrams and TCP-like connections.

A :class:`Host` is a named machine attached to a site domain.  It owns
sockets, listeners, connections, processes, daemons and a disk;
crashing a host ends all of them but the disk, and ``restart`` builds
its daemons again from their configuration and the disk (§4).

Two transports are provided, matching the paper's usage:

* **Datagrams** (:class:`UdpSocket`) — unreliable, unordered enough for
  our purposes, subject to configured loss.  The Globe Location Service
  runs over these (§6.3: "For efficiency reasons this is based on UDP").
* **Connections** (:class:`Connection`) — reliable, FIFO, with a
  one-RTT connection-establishment cost.  All other GDN traffic runs
  over these, optionally wrapped by the TLS layer
  (:mod:`repro.security.tls`).

Connections preserve FIFO ordering even though each message's transfer
delay depends on its size: a per-direction clock makes a later message
arrive no earlier than its predecessor, which also approximates
back-to-back pipelining of large transfers.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import Any, Callable, Dict, Generator, List, Optional

from .deadlines import shared_pool
from .kernel import Event, Process, Simulator, Store
from .network import Network
from .serde import HEADER_OVERHEAD, encoded_size
from .topology import Domain

__all__ = [
    "Host",
    "UdpSocket",
    "TcpListener",
    "Connection",
    "Inbox",
    "Datagram",
    "TransportError",
    "ConnectionClosed",
    "ConnectRefused",
    "ConnectTimeout",
    "HostDown",
]

#: Handshake segment size (SYN / SYN-ACK / RST).
_HANDSHAKE_SIZE = HEADER_OVERHEAD
#: How long a connect attempt waits for a SYN-ACK before giving up.
CONNECT_TIMEOUT = 3.0


class TransportError(Exception):
    """Base class for transport failures."""


class ConnectionClosed(TransportError):
    """The peer closed the connection or its host went down."""


class ConnectRefused(TransportError):
    """No listener at the destination port."""


class ConnectTimeout(TransportError):
    """The destination did not answer the connection request."""


class HostDown(TransportError):
    """Operation attempted on or towards a crashed host."""


class Datagram:
    """An unreliable message as received by a :class:`UdpSocket`."""

    __slots__ = ("src_host", "src_port", "payload", "size")

    def __init__(self, src_host: "Host", src_port: int, payload: Any,
                 size: int):
        self.src_host = src_host
        self.src_port = src_port
        self.payload = payload
        self.size = size

    def __repr__(self) -> str:
        return ("Datagram(from=%s:%d, %d bytes)"
                % (self.src_host.name, self.src_port, self.size))


def _counter(daemon, path: str) -> tuple:
    """(object, attribute) of the counter at a dotted ``path``."""
    *owners, name = path.split(".")
    return reduce(getattr, owners, daemon), name


class Host:
    """A machine attached to a site, owning sockets and processes.  A
    daemon class names in ``COUNTS`` the counters observers read: a new
    incarnation starts from the old one's, so none falls.  A restart
    runs the boots, then ``recovery``: each daemon's ``reload()``, which
    reads its disk and waits on no other host, then ``reloaded`` (the
    RPC servers' cue to serve), then the fetches the reloads returned."""

    def __init__(self, network: Network, name: str, site: Domain):
        self.network = network
        self.sim: Simulator = network.sim
        self.name = name
        self.site = site
        self.up = True
        self.incarnation = 0  # restarts so far
        self.recovery = self.reloaded = None  # see restart
        #: Stable storage (key -> record), which a crash leaves as it is.
        self.disk: Dict[str, dict] = {}
        #: [boot, its daemon, or while down the daemon's counts], in order.
        self._installed: List[list] = []
        self._udp_ports: Dict[int, "UdpSocket"] = {}
        self._tcp_listeners: Dict[int, "TcpListener"] = {}
        # Insertion-ordered sets (dict keys): a process exit or a
        # connection close removes its entry in O(1) however many a
        # busy HTTPD has live, and crash() still kills in spawn order.
        self._connections: Dict["Connection", None] = {}
        self._processes: Dict[Process, None] = {}
        self._ephemeral = itertools.count(49152)

    def __repr__(self) -> str:
        return "Host(%s @ %s)" % (self.name, self.site.path)

    # -- process management ---------------------------------------------

    def spawn(self, generator: Generator) -> Process:
        """Run ``generator`` as a process that dies if this host crashes."""
        if not self.up:
            raise HostDown("cannot spawn on crashed host %s" % self.name)
        return self._own(self.sim.process(generator))

    def start(self, generator: Generator) -> Optional[Process]:
        """:meth:`Simulator.start` on this host: once it waits, one of
        the host's processes — or killed there, if its first step
        crashed this host."""
        if not self.up:
            raise HostDown("cannot start on crashed host %s" % self.name)
        process = self.sim.start(generator)
        if process is not None and self.up:
            self._own(process)
        elif process is not None:
            process.kill()
        return process

    def _own(self, process: Process) -> Process:
        self._processes[process] = None  # left as it ends (Process._end)
        process._owner = self._processes
        return process

    # -- lifecycle --------------------------------------------------------

    def install(self, boot: Callable[[], Any]) -> Any:
        """Run ``boot``, which builds and starts one daemon, now and at
        every :meth:`restart`, in install order; return the daemon."""
        daemon = boot()
        self._installed.append([boot, daemon])
        return daemon

    def crash(self) -> None:
        """Hard-stop the machine: processes killed, endpoints destroyed,
        daemons dropped."""
        if not self.up:
            return
        self.up = False
        self.network.set_host_down(self.name, True)
        for process in list(self._processes):
            process.kill()  # each leaves _processes as it dies
        for connection in list(self._connections):
            connection._break()  # each leaves _connections as it breaks
        for socket in list(self._udp_ports.values()):
            socket.close()
        for listener in list(self._tcp_listeners.values()):
            listener.close()
        for entry in self._installed:
            entry[1] = {path: getattr(*_counter(entry[1], path))
                        for path in getattr(entry[1], "COUNTS", ())}

    def restart(self) -> None:
        """Bring a crashed machine back up as its next incarnation:
        every installed boot runs again, then :attr:`recovery`."""
        if self.up:
            return
        self.up = True
        self.incarnation += 1
        self.reloaded = self.sim.event()
        self.network.set_host_down(self.name, False)
        for entry in self._installed:
            counts = entry[1]
            entry[1] = daemon = entry[0]()
            for path, count in counts.items():
                owner, name = _counter(daemon, path)
                setattr(owner, name, getattr(owner, name) + count)
        self.recovery = self.spawn(self._recover())

    def _recover(self) -> Generator:
        fetches = []
        for _boot, daemon in self._installed:
            if hasattr(daemon, "reload"):
                fetches += yield from daemon.reload()
        self.reloaded.succeed()
        for fetch in fetches:
            yield from fetch

    def _require_up(self) -> None:
        if not self.up:
            raise HostDown("host %s is down" % self.name)

    # -- UDP ---------------------------------------------------------------

    def udp_socket(self, port: Optional[int] = None) -> "UdpSocket":
        self._require_up()
        if port is None:
            port = next(self._ephemeral)
        if port in self._udp_ports:
            raise TransportError(
                "UDP port %d already bound on %s" % (port, self.name))
        socket = UdpSocket(self, port)
        self._udp_ports[port] = socket
        return socket

    # -- TCP ---------------------------------------------------------------

    def listen(self, port: int) -> "TcpListener":
        self._require_up()
        if port in self._tcp_listeners:
            raise TransportError(
                "TCP port %d already listening on %s" % (port, self.name))
        listener = TcpListener(self, port)
        self._tcp_listeners[port] = listener
        return listener

    def connect(self, dst: "Host", port: int
                ) -> Generator[Event, Any, "Connection"]:
        """Open a connection to ``dst:port`` (one-RTT handshake).

        A generator: use as ``conn = yield from host.connect(dst, 80)``.
        Raises :class:`ConnectRefused` if nothing listens there,
        :class:`ConnectTimeout` if the destination is unreachable.
        """
        self._require_up()
        reply: Event = self.sim.event()

        def on_syn_arrival(_event) -> None:
            listener = dst._tcp_listeners.get(port) if dst.up else None

            def deliver_reply(accept: bool) -> None:
                def on_reply(_event) -> None:
                    if reply.triggered:
                        return
                    if accept:
                        reply.succeed()
                    else:
                        reply.fail(ConnectRefused(
                            "%s:%d refused" % (dst.name, port)))
                self.network.deliver(dst.site, self.site, self.name,
                                     _HANDSHAKE_SIZE, on_reply,
                                     reliable=True)

            deliver_reply(accept=listener is not None)

        delivered = self.network.deliver(
            self.site, dst.site, dst.name, _HANDSHAKE_SIZE, on_syn_arrival,
            reliable=True)
        def expire() -> None:
            # Pre-defused: the connecting process may have died while
            # waiting (its host crashed); the expiry then passes
            # silently instead of crashing the simulation.
            if not reply.triggered:
                reply.defuse()
                reply.fail(ConnectTimeout(
                    "connect to %s:%d timed out%s"
                    % (dst.name, port,
                       "" if delivered else " (unreachable)")))

        # The guard joins the simulator-wide deadline pool instead of
        # arming its own kernel timer (one armed timer covers every
        # pending connect/call guard in the world).
        pool = shared_pool(self.sim)
        guard = pool.add(expire, CONNECT_TIMEOUT)
        try:
            yield reply  # raises ConnectRefused / ConnectTimeout
        finally:
            pool.cancel(guard)  # handshakes leave nothing pending behind
        listener = dst._tcp_listeners.get(port)
        if listener is None or not dst.up:
            raise ConnectRefused("%s:%d refused" % (dst.name, port))
        client_end = Connection(self, dst)
        server_end = Connection(dst, self)
        client_end._peer = server_end
        server_end._peer = client_end
        self._connections[client_end] = None
        dst._connections[server_end] = None
        listener._pending.put(server_end)
        return client_end


class UdpSocket:
    """An unreliable datagram endpoint bound to ``host:port``."""

    def __init__(self, host: Host, port: int):
        self.host = host
        self.port = port
        self._inbox: Store = host.sim.store()
        self.closed = False

    def send_to(self, dst: Host, dst_port: int, payload: Any,
                size: Optional[int] = None,
                reply_to: Optional[Datagram] = None) -> None:
        """Fire-and-forget datagram; may be silently lost.

        It leaves from this socket, but with ``reply_to`` it carries
        that received datagram's return address instead of this
        socket's: a forwarded request, answered straight to its caller.
        """
        if self.closed:
            raise TransportError("socket is closed")
        wire = (size if size is not None else encoded_size(payload))
        wire += HEADER_OVERHEAD
        if reply_to is None:
            src_host, src_port = self.host, self.port
        else:
            src_host, src_port = reply_to.src_host, reply_to.src_port

        def deliver(_event) -> None:
            # Inline hand-off: the arrival timer's callback resumes a
            # parked recv() directly (Store.put_inline) — no run-queue
            # event per datagram.
            target = dst._udp_ports.get(dst_port)
            if target is not None and not target.closed and dst.up:
                target._inbox.put_inline(
                    Datagram(src_host, src_port, payload, wire))

        self.host.network.deliver(self.host.site, dst.site, dst.name,
                                  wire, deliver, reliable=False)

    def send_burst(self, dst: Host, dst_port: int, items) -> int:
        """Send many datagrams to one ``dst:dst_port`` as one burst.

        ``items`` is a sequence of ``(payload, size)`` pairs (``size``
        ``None`` ⇒ measured via ``encoded_size``), in send order.
        Behaviourally identical to calling :meth:`send_to` once per
        item — same metering, same loss draws, same arrival ordering —
        but the whole burst arms a single kernel timer
        (:meth:`~repro.sim.network.Network.deliver_burst`), which is
        the cheap path for same-pair fan-out like a multi-fragment
        download response.  Returns the number scheduled (not lost).
        """
        if self.closed:
            raise TransportError("socket is closed")
        host = self.host
        port = self.port
        inbox_ok = dst._udp_ports
        messages = []
        for payload, size in items:
            wire = (size if size is not None else encoded_size(payload))
            wire += HEADER_OVERHEAD

            def deliver(_event, payload=payload, wire=wire) -> None:
                target = inbox_ok.get(dst_port)
                if target is not None and not target.closed and dst.up:
                    target._inbox.put_inline(
                        Datagram(host, port, payload, wire))

            messages.append((wire, deliver))
        return host.network.deliver_burst(host.site, dst.site, dst.name,
                                          messages)

    def recv(self) -> Event:
        """Event firing with the next :class:`Datagram`."""
        if self.closed:
            raise TransportError("socket is closed")
        return self._inbox.get()

    def close(self) -> None:
        """Unbind; a receiver parked in :meth:`recv` fails with
        :class:`TransportError`.  Pre-defused like :meth:`Inbox.get`,
        and a getter nobody watches any more (its process was killed)
        is dropped without an event."""
        if self.closed:
            return
        self.closed = True
        self.host._udp_ports.pop(self.port, None)
        getters = self._inbox._getters
        while getters:
            getter = getters.popleft()
            if getter.callbacks and not getter.triggered:
                getter._defused = True
                getter.fail(TransportError("socket is closed"))


class TcpListener:
    """Accepts incoming connections on ``host:port``."""

    def __init__(self, host: Host, port: int):
        self.host = host
        self.port = port
        self._pending: Store = host.sim.store()
        self.closed = False

    def accept(self) -> Event:
        """Event firing with the server-side :class:`Connection`."""
        if self.closed:
            raise TransportError("listener is closed")
        return self._pending.get()

    def close(self) -> None:
        """Unbind; closing again leaves the port to whoever holds it
        now."""
        if self.closed:
            return
        self.closed = True
        self.host._tcp_listeners.pop(self.port, None)


class _Failure:
    """A backlog entry of an :class:`Inbox` that fails the ``get()``
    reaching it (a payload may be any object, exceptions included)."""

    __slots__ = ("exception",)

    def __init__(self, exception: Exception):
        self.exception = exception


class Inbox(Store):
    """The receiving side of one direction of a reliable channel.

    A :class:`~repro.sim.kernel.Store` whose ``get()`` is the
    channel's ``recv()``: the event a receiver parks on is the very
    event the producer fires, so a message costs no kernel event of
    its own between arriving and resuming its receiver.  On top of
    the store's FIFO it keeps the channel contract the replication
    protocols rely on:

    * data reaches receivers in the order it was put, whether it is
      handed to a parked receiver or waits in the backlog;
    * the end of the stream (:meth:`close`) is seen only after every
      message put before it has been received, and then by *every*
      later ``get()``;
    * a failure put with :meth:`put_failure` fails exactly one
      ``get()``, in its place in the order.

    Producers that are kernel callbacks (an arrival timer) deliver with
    :meth:`~repro.sim.kernel.Store.put_inline`.  The end of the stream
    and failures go through the run queue: they also come from
    ``close()`` and ``send()`` calls made by arbitrary processes —
    possibly the parked receiver's own channel dispatcher — which must
    not find themselves resumed under their own frame.

    ``get()`` events are pre-defused: a teardown notification must not
    crash the simulation when the waiting process has itself been
    killed (its host crashed between ``recv()`` and the EOF arriving).
    """

    __slots__ = ("_closed_because",)

    #: A subclass's hook (the TLS record layer), called as the peer sends:
    #: ``admit(arrival[, payload])`` (none: end of stream) -> when to put.
    admit = None

    def __init__(self, sim: Simulator):
        super().__init__(sim)
        self._closed_because: Optional[str] = None

    def get(self) -> Event:
        event = Event(self.sim)
        event._defused = True
        if self._items:
            item = self._items.popleft()
            if type(item) is _Failure:
                event.fail(item.exception)
            else:
                event.succeed(item)
        elif self._closed_because is not None:
            event.fail(ConnectionClosed(self._closed_because))
        else:
            self._getters.append(event)
        return event

    def put_failure(self, exception: Exception) -> None:
        """Fail the next ``get()`` (only that one) with ``exception``."""
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if not getter.triggered:
                getter.fail(exception)
                return
        self._items.append(_Failure(exception))

    def close(self, because: str) -> None:
        """End of stream: parked receivers fail with
        :class:`ConnectionClosed` now, later ones once the backlog is
        drained.  Idempotent; the first reason sticks."""
        if self._closed_because is not None:
            return
        self._closed_because = because
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if not getter.triggered:
                getter.fail(ConnectionClosed(because))


class Connection:
    """One endpoint of a reliable, FIFO, bidirectional connection."""

    def __init__(self, local: Host, remote: Host):
        self.local = local
        self.remote = remote
        self.sim = local.sim
        self._inbox = Inbox(local.sim)
        self._next_arrival = 0.0
        self.closed = False
        self.broken = False
        self.bytes_received = 0

    def __repr__(self) -> str:
        return "Connection(%s -> %s)" % (self.local.name, self.remote.name)

    # -- data transfer -----------------------------------------------------

    def send(self, payload: Any, size: Optional[int] = None,
             departure: Optional[float] = None) -> int:
        """Send a message; returns the wire size charged.

        Raises :class:`ConnectionClosed` if this end is closed/broken.
        Delivery from ``departure`` (default: now) is asynchronous, FIFO.
        """
        if self.closed or self.broken:  # a crash breaks every connection
            raise ConnectionClosed("send on closed connection %r" % self)
        wire = (size if size is not None else encoded_size(payload))
        wire += HEADER_OVERHEAD
        if self.local.network.host_is_down(self.remote.name):
            self._break()
            raise ConnectionClosed("peer host %s is down" % self.remote.name)
        peer = self._peer

        def deliver(_event) -> None:
            # Inline hand-off: the arrival timer's callback resumes a
            # parked recv() directly (Store.put_inline), as a datagram
            # does.  A straggler still in flight when the connection
            # broke is dropped: once broken, every recv fails.
            if not peer.closed and not peer.broken and peer.local.up:
                peer.bytes_received += wire
                peer._inbox.put_inline(payload)

        network = self.local.network
        base_delay = network.transfer_delay(self.local.site,
                                            self.remote.site, wire)
        arrival = max((self.sim.now if departure is None else departure)
                      + base_delay, self._next_arrival)
        self._next_arrival = arrival
        admit = peer._inbox.admit
        # Deliver at exactly the pacing clock's timestamp (or its
        # admission): recomputing the delay (a second jitter draw, or a
        # float-rounding ULP) could reorder messages.
        delivered = network.deliver(self.local.site, self.remote.site,
                                    self.remote.name, wire, deliver,
                                    reliable=True, at=arrival if admit is None
                                    else admit(arrival, payload))
        if not delivered:
            self._break()
            raise ConnectionClosed("connection to %s lost" % self.remote.name)
        return wire

    def recv(self) -> Event:
        """Event firing with the next message.

        Fails with :class:`ConnectionClosed` once the peer has closed
        (after all in-flight messages have been drained).  The event
        returned *is* the one the arrival timer fires (see
        :class:`Inbox`): a receiver parked here is resumed inside the
        arrival callback's frame, at the arrival instant, with no
        kernel event in between; a receiver that fell behind takes the
        head of the backlog straight away.
        """
        if self.closed:
            result = self.sim.event()
            result._defused = True
            result.fail(ConnectionClosed("recv on closed connection"))
            return result
        return self._inbox.get()

    # -- teardown ---------------------------------------------------------

    def close(self) -> None:
        """Graceful close: the peer drains in-flight data, then sees EOF."""
        if self.closed:
            return
        self.closed = True
        peer = self._peer
        # A broken connection's surviving end already saw end of
        # stream (:meth:`_break`): a FIN would only be metered and
        # dropped on its way to a dead or cut-off peer.
        if peer is not None and not peer.closed and not self.broken:
            network = self.local.network
            base_delay = network.transfer_delay(
                self.local.site, self.remote.site, HEADER_OVERHEAD)
            arrival = max(self.sim.now + base_delay, self._next_arrival)
            admit = peer._inbox.admit
            network.deliver(self.local.site, self.remote.site,
                            self.remote.name, HEADER_OVERHEAD,
                            lambda _event: peer._inbox.close(
                                "peer closed %r" % peer)
                            if not peer.closed else None,
                            reliable=True,
                            at=arrival if admit is None else admit(arrival))
        self.local._connections.pop(self, None)

    def receive_into(self, inbox: Inbox) -> None:
        """Receive into ``inbox`` from now on, what arrived first."""
        old, self._inbox = self._inbox, inbox
        for item in old._items:
            inbox.put_inline(item)
        if old._closed_because is not None:
            inbox.close(old._closed_because)

    def _break(self) -> None:
        """Abrupt teardown (host crash): surviving ends see EOF."""
        for end in (self, self._peer):
            end.broken = True
            if end.local.up:
                end._inbox.close("peer closed %r" % end)
            end.local._connections.pop(end, None)
