"""The Globe Object Server (paper §4).

"A Globe Object Server is an application-independent daemon for hosting
replicas of any kind of distributed shared object."  It exposes two
kinds of RPC methods on one port:

* ``dso_message`` — routes Globe Replication Protocol messages to the
  addressed replica's local representative (the Figure 3 "GRP" arrows);
* control commands (``create_object``, ``create_replica``,
  ``remove_replica``, ``list_replicas``, ``checkpoint``, ``ping``) —
  used by moderator tools to realise replication scenarios (§6.1's
  "create first replica" / "bind to DSO, create replica" commands).

Security (§6.1 requirements 1 and the "Modifying Packages" clause): an
``authorizer`` callback decides, per authenticated peer principal,
whether control commands and state-modifying messages are accepted.
The GDN layer wires this to TLS-authenticated channels; unit tests can
leave it open.

Persistence (§4): replica state is checkpointed to simulated stable
storage; :meth:`GlobeObjectServer.recover` reconstructs all replicas
after a host reboot — slaves additionally re-join their master to catch
up on writes missed while down.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, List, Optional

from ..core.ids import ContactAddress, ObjectId
from ..core.local_repr import LocalRepresentative
from ..core.marshal import pack, unpack
from ..core.replication.base import PROTOCOLS, ReplicationError
from ..core.repository import ImplementationRepository
from ..sim.rpc import ChannelPool, RpcContext, RpcServer
from ..sim.transport import Host
from ..sim.world import World
from .persistence import DiskStore, GosPersistence

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
    host crash breaks them all and recovery reopens on demand.
    """

    _instances = itertools.count(1)

    def __init__(self, world: World, host: Host,
                 repository: ImplementationRepository,
                 location_service,
                 port: int = DEFAULT_GOS_PORT,
                 channel_factory: Optional[Callable] = None,
                 channel_wrapper: Optional[Callable] = None,
                 authorizer: Optional[Callable[[RpcContext, str], bool]] = None,
                 disk: Optional[DiskStore] = None,
                 checkpoint_interval: Optional[float] = None,
                 checkpoint_on_write: bool = False):
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
        self.persistence = GosPersistence(
            world, disk if disk is not None else DiskStore(), host.name)
        self.replicas: Dict[str, LocalRepresentative] = {}
        self._records: Dict[str, dict] = {}
        self._server: Optional[RpcServer] = None
        #: Periodic checkpointing bounds state lost to a crash to one
        #: interval (None = checkpoint only on create/command).
        self.checkpoint_interval = checkpoint_interval
        #: Write-through durability: checkpoint a replica right after
        #: each state-modifying message it handled, so a master never
        #: rolls back behind its slaves on reboot.
        self.checkpoint_on_write = checkpoint_on_write
        self._checkpointer = None
        self.name = "gos-%d" % next(self._instances)
        #: Requests served across server incarnations (survives the
        #: restart that replaces ``self._server`` after a crash).
        self._requests_baseline = 0

    @property
    def requests_served(self) -> int:
        return self._requests_baseline + (
            self._server.requests_served if self._server is not None else 0)

    def bind_metrics(self, registry, prefix: Optional[str] = None) -> None:
        """Per-server request/replica instruments in the world registry
        (named ``gos.<host>.*`` unless a prefix is supplied)."""
        base = prefix if prefix is not None else "gos.%s" % self.host.name
        registry.counter(base + ".requests_served",
                         fn=lambda: self.requests_served)
        registry.gauge(base + ".replicas", fn=lambda: len(self.replicas))
        self.pool.bind_metrics(registry, base + ".channels")
        binder = getattr(self.location_service, "bind_metrics", None)
        if binder is not None:
            # The location service may be a GLS-lookup cache wrapper;
            # no-op if the shared per-host cache is already bound.
            binder(registry, base + ".gls_cache")

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Start serving (host must be up)."""
        if self._server is not None:
            # Crash recovery replaces the server without a stop();
            # keep the cumulative request count monotone.
            self._requests_baseline += self._server.requests_served
        server = RpcServer(self.host, self.port,
                           channel_factory=self.channel_factory)
        server.register("dso_message", self._handle_dso_message)
        server.register("create_object", self._handle_create_object)
        server.register("create_replica", self._handle_create_replica)
        server.register("remove_replica", self._handle_remove_replica)
        server.register("list_replicas", self._handle_list_replicas)
        server.register("checkpoint", self._handle_checkpoint)
        server.register("get_manifest", self._handle_get_manifest)
        server.register("get_chunk", self._handle_get_chunk)
        server.register("ping", lambda ctx, args: "pong")
        server.start()
        self._server = server
        if self.checkpoint_interval is not None:
            self._checkpointer = self.host.spawn(self._checkpoint_loop())

    def _checkpoint_loop(self) -> Generator:
        while True:
            yield self.world.sim.timeout(self.checkpoint_interval)
            yield from self._checkpoint_all()

    def stop(self) -> None:
        if self._server is not None:
            self._requests_baseline += self._server.requests_served
            self._server.stop()
            self._server = None
        if self._checkpointer is not None and self._checkpointer.alive:
            self._checkpointer.kill()
            self._checkpointer = None

    def shutdown(self) -> Generator:
        """Graceful shutdown: checkpoint every replica, stop serving."""
        yield from self._checkpoint_all()
        for replica in self.replicas.values():
            replica.detach()
        self.replicas.clear()
        # The replicas' best-effort leave messages (spawned by
        # detach) go out afterwards, over one reopened channel.
        self.pool.close()
        self.stop()

    def recover(self) -> Generator:
        """Reconstruct replicas from stable storage after a reboot.

        The paper: object servers "allow replicas to save their state
        during a reboot and reconstruct themselves afterwards".  Slaves
        re-join their master, so state missed while down is recovered
        even from a stale checkpoint.
        """
        self.replicas.clear()
        self.start()
        records = yield from self.persistence.load_all()
        self._records = records
        for oid_hex, record in records.items():
            yield from self._reconstruct(oid_hex, record)

    # -- replica construction ---------------------------------------------

    def _make_contact_address(self, protocol: str, role: str,
                              impl_id: str) -> ContactAddress:
        return ContactAddress(self.host.name, self.port, protocol,
                              role=role, impl_id=impl_id,
                              site_path=self.host.site.path)

    def _compose_replica(self, oid: ObjectId, impl_id: str, protocol: str,
                         role: str, master_wire: Optional[dict],
                         protocol_options: Optional[dict] = None
                         ) -> Generator[Any, Any, LocalRepresentative]:
        implementation = yield from self.repository.load(self.host, impl_id)
        protocol_spec = PROTOCOLS.get(protocol)
        if protocol_spec is None or role not in protocol_spec["roles"]:
            raise GosError("no implementation for %s/%s" % (protocol, role))
        factory = protocol_spec["roles"][role]
        master = (ContactAddress.from_wire(master_wire)
                  if master_wire else None)
        replication = factory(master=master, **(protocol_options or {}))
        address = self._make_contact_address(protocol, role, impl_id)
        representative = LocalRepresentative(
            self.host, self.world, oid, implementation.interface,
            implementation.make_semantics(), replication,
            self.pool, contact_address=address)
        return representative

    def create_local_replica(self, oid: Optional[ObjectId], impl_id: str,
                             protocol: str, role: str,
                             master: Optional[ContactAddress] = None,
                             register: bool = True,
                             protocol_options: Optional[dict] = None
                             ) -> Generator[Any, Any, LocalRepresentative]:
        """Create and start a replica on this server (in-process API).

        Returns the new local representative; its contact address has
        been registered in the location service (which allocates the
        OID when ``oid`` is None — paper §6.1: "As part of the
        registration, an object identifier is allocated for the DSO by
        the GLS").
        """
        master_wire = master.to_wire() if master else None
        if oid is None:
            oid_hex = yield from self.location_service.register(
                None, self._make_contact_address(
                    protocol, role, impl_id).to_wire())
            oid = ObjectId.from_hex(oid_hex)
            registered = True
        else:
            registered = False
        representative = yield from self._compose_replica(
            oid, impl_id, protocol, role, master_wire, protocol_options)
        if register and not registered:
            yield from self.location_service.register(
                oid.hex, representative.contact_address.to_wire())
        yield from representative.start()
        self.replicas[oid.hex] = representative
        self._records[oid.hex] = {
            "impl_id": impl_id, "protocol": protocol, "role": role,
            "master": master_wire, "registered": bool(register),
            "options": dict(protocol_options or {}),
        }
        yield from self._checkpoint_one(oid.hex)
        return representative

    def _reconstruct(self, oid_hex: str, record: dict) -> Generator:
        oid = ObjectId.from_hex(oid_hex)
        representative = yield from self._compose_replica(
            oid, record["impl_id"], record["protocol"], record["role"],
            record.get("master"), record.get("options"))
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
        if record["role"] == "slave":
            # Re-join the master to catch up on missed updates.
            try:
                yield from representative.start()
            except (ReplicationError, Exception):  # noqa: BLE001
                pass  # master may be down; checkpointed state stands
        self.replicas[oid_hex] = representative
        if record.get("registered"):
            yield from self.location_service.register(
                oid_hex, representative.contact_address.to_wire())

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

    def _checkpoint_all(self) -> Generator:
        for oid_hex in list(self.replicas):
            yield from self._checkpoint_one(oid_hex)

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
        if kind in _WRITE_MESSAGE_TYPES or (
                kind == "invoke" and message.get("mode") == "write"):
            self._authorize(ctx, OP_MODIFY, oid_hex)
        representative = self.replicas.get(oid_hex)
        if representative is None:
            return {"type": "error", "reason": "no replica for %s here"
                    % oid_hex[:12]}
        reply = yield from representative.handle_message(message, ctx)
        if self.checkpoint_on_write and (
                kind in _WRITE_MESSAGE_TYPES
                or kind in ("join", "leave")  # durable peer lists
                or (kind == "invoke" and message.get("mode") == "write")):
            self.host.spawn(self._checkpoint_one(oid_hex))
        return reply

    def _handle_get_manifest(self, ctx: RpcContext, args: dict) -> Generator:
        """Chunk manifest for one file of a locally hosted replica.

        Reads carry no authorization (like read-mode ``dso_message``):
        §6.1 makes retrieval open to all GDN users.
        """
        representative = self.replicas.get(args.get("oid", ""))
        if representative is None:
            raise GosError("no replica for %s here"
                           % args.get("oid", "")[:12])
        kwargs = {"path": args["path"]}
        if args.get("chunk_size") is not None:
            kwargs["chunk_size"] = args["chunk_size"]
        manifest = yield from representative.invoke(
            "getFileManifest", kwargs)
        return manifest

    def _handle_get_chunk(self, ctx: RpcContext, args: dict) -> Generator:
        """One chunk of one file of a locally hosted replica."""
        representative = self.replicas.get(args.get("oid", ""))
        if representative is None:
            raise GosError("no replica for %s here"
                           % args.get("oid", "")[:12])
        kwargs = {"path": args["path"], "index": args["index"]}
        if args.get("chunk_size") is not None:
            kwargs["chunk_size"] = args["chunk_size"]
        chunk = yield from representative.invoke("getFileChunk", kwargs)
        return chunk

    def _handle_create_object(self, ctx: RpcContext, args: dict) -> Generator:
        """Create the *first* replica; the GLS allocates the OID."""
        self._authorize(ctx, OP_CONTROL)
        representative = yield from self.create_local_replica(
            None, args["impl_id"], args["protocol"], args["role"],
            protocol_options=args.get("options"))
        return {"oid": representative.oid.hex,
                "ca": representative.contact_address.to_wire()}

    def _handle_create_replica(self, ctx: RpcContext, args: dict) -> Generator:
        """Bind to an existing DSO and host an additional replica."""
        self._authorize(ctx, OP_CONTROL)
        master = (ContactAddress.from_wire(args["master"])
                  if args.get("master") else None)
        representative = yield from self.create_local_replica(
            ObjectId.from_hex(args["oid"]), args["impl_id"],
            args["protocol"], args["role"], master=master,
            protocol_options=args.get("options"))
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

    def _handle_list_replicas(self, ctx: RpcContext, args: dict):
        self._authorize(ctx, OP_CONTROL)
        return {"replicas": [
            {"oid": oid_hex, "role": lr.role,
             "protocol": lr.replication.protocol}
            for oid_hex, lr in sorted(self.replicas.items())]}

    def _handle_checkpoint(self, ctx: RpcContext, args: dict) -> Generator:
        self._authorize(ctx, OP_CONTROL)
        yield from self._checkpoint_all()
        return {"checkpointed": len(self.replicas)}
