"""The Globe Object Server (paper §4).

"A Globe Object Server is an application-independent daemon for hosting
replicas of any kind of distributed shared object."  It exposes two
kinds of RPC methods on one port:

* ``dso_message`` — routes Globe Replication Protocol messages to the
  addressed replica's local representative (the Figure 3 "GRP" arrows);
* control commands (``create_object``, ``create_replica``,
  ``remove_replica``, ``ping``) — used by moderator tools to realise
  replication scenarios (§6.1's "create first replica" / "bind to DSO,
  create replica" commands).

Security (§6.1 requirements 1 and the "Modifying Packages" clause): an
``authorizer`` callback decides, per authenticated peer principal,
whether control commands and state-modifying messages are accepted.
The GDN layer wires this to TLS-authenticated channels; unit tests can
leave it open.

Persistence (§4): "Globe Object Servers allow replicas to save their
state during a reboot and reconstruct themselves afterwards."  Replica
state is checkpointed write-through to the ``gos`` namespace of the
host's disk (a :class:`~repro.sim.stable.StableStore`): at creation,
after every message that changed its state or peer list (a write, a
state push, a join or a leave), and at :meth:`GlobeObjectServer.shutdown`.
A message is answered before its checkpoint is on disk, so a write
acknowledged to its writer survives every crash of its master but one
less than ``DISK_WRITE_LATENCY`` (5 ms) after the acknowledgement; a
master's incarnation epoch covers what its slaves saw of such a write.
A restarted server reloads every replica (:meth:`GlobeObjectServer.reload`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional

from ..core.ids import ContactAddress, ObjectId
from ..core.local_repr import LocalRepresentative
from ..core.marshal import pack, unpack
from ..core.replication.base import PROTOCOLS
from ..core.repository import ImplementationRepository
from ..sim.rpc import ChannelPool, RpcContext, RpcServer
from ..sim.stable import StableStore
from ..sim.transport import Host
from ..sim.world import World

__all__ = ["GlobeObjectServer", "GosError", "NotAuthorized"]

DEFAULT_GOS_PORT = 7100

#: Authorizer operations.
OP_CONTROL = "control"   # create/remove replicas, checkpointing
OP_MODIFY = "modify"     # state-modifying invocations and state updates

_WRITE_MESSAGE_TYPES = {"state_push"}


class GosError(Exception):
    """Raised for object-server failures."""


class NotAuthorized(GosError):
    """The peer principal may not perform this operation."""


class GlobeObjectServer:
    """An application-independent replica-hosting daemon.

    One address space: the replicas hosted here share the server's
    :class:`~repro.sim.rpc.ChannelPool` (``pool``), so a server with N
    masters keeps one connection to each slave server (and a slave
    server one to each master server), not N.  The pool holds at most
    one channel per peer server contacted, until :meth:`shutdown`; a
    host crash ends the server with them.
    """

    COUNTS = ("_server.requests_served",)

    def __init__(self, world: World, host: Host,
                 repository: ImplementationRepository,
                 location_service,
                 port: int = DEFAULT_GOS_PORT,
                 channel_factory: Optional[Callable] = None,
                 channel_wrapper: Optional[Callable] = None,
                 authorizer: Optional[Callable[[RpcContext, str], bool]] = None):
        self.world = world
        self.host = host
        self.repository = repository
        self.location_service = location_service
        self.port = port
        #: Server-side security wrapper for incoming channels.
        self.channel_factory = channel_factory
        #: The server's one channel pool: every replica hosted here
        #: reaches a given peer server over the same channel, opened
        #: through the client-side ``channel_wrapper``.
        self.pool = ChannelPool(host, channel_wrapper)
        self.authorizer = authorizer
        self.persistence = StableStore(host, "gos")
        self.replicas: Dict[str, LocalRepresentative] = {}
        self._records: Dict[str, dict] = {}
        server = RpcServer(host, port, channel_factory=channel_factory)
        server.register("dso_message", self._handle_dso_message)
        server.register("create_object", self._handle_create_object)
        server.register("create_replica", self._handle_create_replica)
        server.register("remove_replica", self._handle_remove_replica)
        server.register("ping", lambda ctx, args: "pong")
        self._server = server

    @property
    def requests_served(self) -> int:
        return self._server.requests_served

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Start serving (host must be up)."""
        self._server.start()

    def stop(self) -> None:
        self._server.stop()

    def shutdown(self) -> Generator:
        """Graceful shutdown: checkpoint every replica, stop serving."""
        for oid_hex in list(self.replicas):
            yield from self._checkpoint_one(oid_hex)
        for replica in self.replicas.values():
            replica.detach()
        self.replicas.clear()
        # The replicas' best-effort leave messages (spawned by
        # detach) go out afterwards, over one reopened channel.
        self.pool.close()
        self.stop()

    def reload(self) -> Generator:
        """Reconstruct the replicas the disk holds (§4); return each
        one's re-registration with the GLS, a slave's after it re-joins
        its master, which recovers state missed while down even from a
        stale checkpoint."""
        self._records = yield from self.persistence.load_all()
        fetches = []
        for oid_hex, record in self._records.items():
            fetches.append((yield from self._reconstruct(oid_hex, record)))
        return fetches

    # -- replica construction ---------------------------------------------

    def _make_contact_address(self, protocol: str, role: str,
                              impl_id: str) -> ContactAddress:
        return ContactAddress(self.host.name, self.port, protocol,
                              role=role, impl_id=impl_id,
                              site_path=self.host.site.path)

    def _compose_replica(self, oid: ObjectId, impl_id: str, protocol: str,
                         role: str, master_wire: Optional[dict]
                         ) -> Generator[Any, Any, LocalRepresentative]:
        implementation = yield from self.repository.load(self.host, impl_id)
        protocol_spec = PROTOCOLS.get(protocol)
        if protocol_spec is None or role not in protocol_spec["roles"]:
            raise GosError("no implementation for %s/%s" % (protocol, role))
        factory = protocol_spec["roles"][role]
        master = (ContactAddress.from_wire(master_wire)
                  if master_wire else None)
        replication = factory(master=master)
        address = self._make_contact_address(protocol, role, impl_id)
        representative = LocalRepresentative(
            self.host, self.world, oid, implementation.interface,
            implementation.make_semantics(), replication,
            self.pool, contact_address=address)
        return representative

    def create_local_replica(self, oid: Optional[ObjectId], impl_id: str,
                             protocol: str, role: str,
                             master: Optional[ContactAddress] = None
                             ) -> Generator[Any, Any, LocalRepresentative]:
        """Create and start a replica on this server (in-process API).

        Returns the new local representative; its contact address has
        been registered in the location service (which allocates the
        OID when ``oid`` is None — paper §6.1: "As part of the
        registration, an object identifier is allocated for the DSO by
        the GLS").
        """
        master_wire = master.to_wire() if master else None
        allocate = oid is None  # the GLS registers it as it allocates
        if allocate:
            oid_hex = yield from self.location_service.register(
                None, self._make_contact_address(
                    protocol, role, impl_id).to_wire())
            oid = ObjectId.from_hex(oid_hex)
        representative = yield from self._compose_replica(
            oid, impl_id, protocol, role, master_wire)
        # Recorded before the join: a push that beats the state the
        # join brings is taken, not refused (_handle_dso_message).
        self._records[oid.hex] = {
            "impl_id": impl_id, "protocol": protocol, "role": role,
            "master": master_wire}
        try:
            yield from representative.start()
        except Exception:
            del self._records[oid.hex]
            raise
        self.replicas[oid.hex] = representative
        yield from self._checkpoint_one(oid.hex)
        if not allocate:  # once on disk, where a reload registers it again
            yield from self.location_service.register(
                oid.hex, representative.contact_address.to_wire())
        return representative

    def _reconstruct(self, oid_hex: str, record: dict) -> Generator:
        oid = ObjectId.from_hex(oid_hex)
        representative = yield from self._compose_replica(
            oid, record["impl_id"], record["protocol"], record["role"],
            record.get("master"))
        state = record.get("state")
        if state is not None:
            representative.semantics.restore_state(unpack(state))
        replication = representative.replication
        protocol_state = record.get("protocol_state", {})
        replication.restore_protocol_state(protocol_state)
        if pack(replication.protocol_state()) != pack(protocol_state):
            # The replica came back as a new incarnation (a master's
            # epoch): make that durable before it serves, or a second
            # crash would bring back this incarnation's number for the
            # next one.
            yield from self._save(oid_hex, representative)
        if record["role"] != "slave":
            self.replicas[oid_hex] = representative
        return self._rejoin(oid_hex, representative)

    def _rejoin(self, oid_hex: str, replica: LocalRepresentative) -> Generator:
        if replica.contact_address.role == "slave":
            # Re-join the master to catch up on missed updates.
            try:
                yield from replica.start()
            except Exception:  # noqa: BLE001
                pass  # master may be down; checkpointed state stands
            self.replicas[oid_hex] = replica
        if self.replicas.get(oid_hex) is replica:  # not removed meanwhile
            yield from self.location_service.register(
                oid_hex, replica.contact_address.to_wire())

    # -- checkpointing -----------------------------------------------------

    def _checkpoint_one(self, oid_hex: str) -> Generator:
        representative = self.replicas.get(oid_hex)
        if representative is None:  # removed while checkpoint queued
            return
        yield from self._save(oid_hex, representative)

    def _save(self, oid_hex: str, representative: LocalRepresentative
              ) -> Generator:
        record = dict(self._records[oid_hex])
        record["state"] = pack(representative.semantics.snapshot_state())
        record["protocol_state"] = \
            representative.replication.protocol_state()
        yield from self.persistence.save(oid_hex, record)

    # -- authorization -------------------------------------------------------

    def _authorize(self, ctx: RpcContext, operation: str,
                   oid_hex: Optional[str] = None) -> None:
        """The authorizer callback gets the addressed OID so policies
        can express per-package rights (the §2 maintainer role)."""
        if self.authorizer is None:
            return
        if not self.authorizer(ctx, operation, oid_hex):
            raise NotAuthorized(
                "%s refused %r for principal %r"
                % (self.host.name, operation, ctx.peer_principal))

    # -- RPC handlers ----------------------------------------------------------

    def _handle_dso_message(self, ctx: RpcContext, args: dict) -> Generator:
        oid_hex = args.get("oid", "")
        message = args.get("msg", {})
        kind = message.get("type")
        modifies = kind in _WRITE_MESSAGE_TYPES or (
            kind == "invoke" and message.get("mode") == "write")
        if modifies:
            self._authorize(ctx, OP_MODIFY, oid_hex)
        representative = self.replicas.get(oid_hex)
        if representative is None:
            if kind == "state_push" and oid_hex in self._records:
                # A slave still joining (or re-joining): the push beat
                # the state it joins with, and the next push's gap
                # brings this write.  Refused, its master would drop it.
                return {"type": "ack"}
            return {"type": "error", "reason": "no replica for %s here"
                    % oid_hex[:12]}
        reply = yield from representative.handle_message(message, ctx)
        if modifies or kind in ("join", "leave"):  # durable peer lists
            # Write-through: the reply goes out now, the checkpoint
            # DISK_WRITE_LATENCY later.
            self.host.spawn(self._checkpoint_one(oid_hex))
        return reply

    def _handle_create_object(self, ctx: RpcContext, args: dict) -> Generator:
        """Create the *first* replica; the GLS allocates the OID."""
        self._authorize(ctx, OP_CONTROL)
        representative = yield from self.create_local_replica(
            None, args["impl_id"], args["protocol"], args["role"])
        return {"oid": representative.oid.hex,
                "ca": representative.contact_address.to_wire()}

    def _handle_create_replica(self, ctx: RpcContext, args: dict) -> Generator:
        """Bind to an existing DSO and host an additional replica."""
        self._authorize(ctx, OP_CONTROL)
        master = (ContactAddress.from_wire(args["master"])
                  if args.get("master") else None)
        representative = yield from self.create_local_replica(
            ObjectId.from_hex(args["oid"]), args["impl_id"],
            args["protocol"], args["role"], master=master)
        return {"oid": representative.oid.hex,
                "ca": representative.contact_address.to_wire()}

    def _handle_remove_replica(self, ctx: RpcContext, args: dict) -> Generator:
        self._authorize(ctx, OP_CONTROL)
        oid_hex = args["oid"]
        representative = self.replicas.pop(oid_hex, None)
        if representative is None:
            raise GosError("no replica for %s here" % oid_hex[:12])
        self._records.pop(oid_hex, None)
        if representative.contact_address is not None:
            yield from self.location_service.unregister(
                oid_hex, representative.contact_address.to_wire())
        representative.detach()
        yield from self.persistence.remove(oid_hex)
        return {"removed": oid_hex}
