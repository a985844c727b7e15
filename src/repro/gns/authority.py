"""The GNS Naming Authority for the GDN Zone (paper §5, §6.1).

"This is the daemon that sends DNS UPDATE messages to the name servers
responsible for the GDN Zone, in response to add and remove requests
from clients."  Requirements implemented here:

* only moderator tools operated by official GDN moderators may submit
  updates (security requirement 3) — enforced through the authorizer
  callback over the authenticated channel principal;
* updates to the zone are *batched* ("The number of updates to our
  zone can be kept low by batching them"): requests are queued and one
  DNS UPDATE message carries the whole batch, signed with TSIG (§6.3).
  The primary commits a batch under one serial and the secondaries
  fetch it as one change set, so a batch costs one transfer per
  secondary, the size of the batch — not of the zone.

Callers' RPCs complete when their batch has been committed to the
primary, so a successful ``add_name`` means the name is live.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Tuple

from ..sim.kernel import AnyOf, Event
from ..sim.rpc import RpcContext, RpcServer, UdpRpcClient
from ..sim.transport import Host
from ..sim.world import World
from .dns.records import RRType
from .dns.tsig import TsigKey, sign_message
from .dns.zone import Rcode
from .gns import (DEFAULT_GDN_ZONE, GnsError, encode_oid_txt,
                  object_name_to_dns)

__all__ = ["NamingAuthority", "AUTHORITY_PORT"]

AUTHORITY_PORT = 5355

#: Default TTL for package name TXT records: mappings are stable
#: because of the two-level naming scheme (§5), so a long TTL is safe.
NAME_TTL = 3600

#: Most name mutations one zone UPDATE carries.
MAX_BATCH = 50


class _PendingOp:
    """One queued name mutation awaiting its batch commit."""

    __slots__ = ("kind", "dns_name", "oid_hex", "done")

    def __init__(self, kind: str, dns_name: str, oid_hex: Optional[str],
                 done: Event):
        self.kind = kind
        self.dns_name = dns_name
        self.oid_hex = oid_hex
        self.done = done


class NamingAuthority:
    """The daemon authorised to mutate the GDN Zone."""

    def __init__(self, world: World, host: Host,
                 primary: Tuple[str, int], tsig_key: TsigKey,
                 zone: str = DEFAULT_GDN_ZONE,
                 port: int = AUTHORITY_PORT,
                 channel_factory: Optional[Callable] = None,
                 authorizer: Optional[Callable[[RpcContext], bool]] = None,
                 batch_window: float = 0.5):
        self.world = world
        self.host = host
        self.primary = tuple(primary)
        self.tsig_key = tsig_key
        self.zone = zone
        self.port = port
        self.channel_factory = channel_factory
        self.authorizer = authorizer
        self.batch_window = batch_window
        self._queue = world.sim.store()
        self._carry_get: Optional[Event] = None
        self._client: Optional[UdpRpcClient] = None
        self._server: Optional[RpcServer] = None
        self.updates_sent = 0
        self.names_added = 0
        self.names_removed = 0
        self.requests_rejected = 0

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        server = RpcServer(self.host, self.port,
                           channel_factory=self.channel_factory)
        server.register("add_name", self._handle_add_name)
        server.register("remove_name", self._handle_remove_name)
        server.start()
        self._server = server
        self._client = UdpRpcClient(self.host, timeout=3.0, retries=2)
        self.host.spawn(self._flush_loop())

    def stop(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None

    # -- request handling ----------------------------------------------------------

    def _authorize(self, ctx: RpcContext) -> None:
        if self.authorizer is not None and not self.authorizer(ctx):
            self.requests_rejected += 1
            raise GnsError("principal %r may not modify the GDN zone"
                           % (ctx.peer_principal,))

    def _enqueue(self, op: _PendingOp) -> None:
        self._queue.put(op)

    def _handle_add_name(self, ctx: RpcContext, args: dict) -> Generator:
        self._authorize(ctx)
        dns_name = object_name_to_dns(args["name"], self.zone)
        done = self.world.sim.event()
        self._enqueue(_PendingOp("add", dns_name, args["oid"], done))
        serial = yield done
        self.names_added += 1
        return {"dns_name": dns_name, "serial": serial}

    def _handle_remove_name(self, ctx: RpcContext, args: dict) -> Generator:
        self._authorize(ctx)
        dns_name = object_name_to_dns(args["name"], self.zone)
        done = self.world.sim.event()
        self._enqueue(_PendingOp("remove", dns_name, None, done))
        serial = yield done
        self.names_removed += 1
        return {"dns_name": dns_name, "serial": serial}

    # -- batching -------------------------------------------------------------------

    def _flush_loop(self) -> Generator:
        """Collect requests into batches and commit each as one UPDATE."""
        while True:
            get_event = self._carry_get or self._queue.get()
            self._carry_get = None
            first = yield get_event
            batch: List[_PendingOp] = [first]
            deadline = self.world.now + self.batch_window
            while len(batch) < MAX_BATCH:
                remaining = deadline - self.world.now
                if remaining <= 0:
                    break
                next_get = self._queue.get()
                timer = self.world.sim.timeout(remaining)
                yield AnyOf(self.world.sim, [next_get, timer])
                if next_get.triggered:
                    timer.cancel()  # batch filled before the window closed
                    batch.append(next_get.value)
                else:
                    # Keep the armed get for the next batch round.
                    self._carry_get = next_get
                    break
            yield from self._commit(batch)

    def _commit(self, batch: List[_PendingOp]) -> Generator:
        adds = []
        deletes = []
        for op in batch:
            if op.kind == "add":
                adds.append({"name": op.dns_name, "type": RRType.TXT.value,
                             "ttl": NAME_TTL,
                             "data": encode_oid_txt(op.oid_hex)})
            else:
                deletes.append({"name": op.dns_name,
                                "type": RRType.TXT.value})
        message = {"zone": self.zone, "adds": adds, "deletes": deletes}
        signed = sign_message(message, self.tsig_key)
        primary_host = self.world.hosts[self.primary[0]]
        try:
            reply = yield from self._client.call(
                primary_host, self.primary[1], "update", signed)
        except Exception as exc:  # noqa: BLE001 - fail the whole batch
            for op in batch:
                if not op.done.triggered:
                    op.done.fail(GnsError("zone update failed: %s" % exc))
            return
        self.updates_sent += 1
        if reply.get("rcode") != Rcode.NOERROR:
            for op in batch:
                if not op.done.triggered:
                    op.done.fail(GnsError(
                        "zone update rejected: %s" % reply.get("rcode")))
            return
        for op in batch:
            if not op.done.triggered:
                op.done.succeed(reply.get("serial"))
