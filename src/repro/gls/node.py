"""GLS directory nodes (paper §3.5, Figure 2).

Each domain in the hierarchy has a logical directory node; a logical
node may be *partitioned* into several subnodes, each responsible for a
hash-slice of the OID space and running on its own machine ("Exploiting
Location Awareness…", cited as the solution to root-node load).

The wire protocol between client ↔ node and node ↔ node is datagram RPC
(§6.3: the GLS "is based on UDP" for efficiency):

* ``lookup``       — walk-up phase: answer, follow a pointer down, or
                     forward to the parent;
* ``lookup_down``  — walk-down phase: follow pointers only;
* ``insert``       — store a contact address at this node (or forward
                     towards the configured storage level), then link
                     the path of forwarding pointers upward;
* ``insert_pointer`` / ``delete_pointer`` — upward path maintenance;
* ``delete``       — remove a contact address, unlinking empty paths.

A lookup is *forwarded*: a node that does not hold the contact
addresses passes the caller's request on to its parent or to a pointer
child (a :class:`~repro.sim.rpc.Forward`), and the node that holds the
record answers the caller directly.  A walk of n nodes is n requests
and one reply; no node on the way keeps a process, a pending call or a
deadline, and a forward that is lost costs the caller's timeout and
retry.  Mutations (insert, delete, pointer updates) are acknowledged
per hop: each node calls the next and answers its caller once the rest
of the chain has.  Over connections (ablation A3, ``transport="tcp"``)
every hop is a nested call, lookups included.

A node writes each record to disk before it answers, and a restarted
one reloads them (§7: "persistent storage of the state of a node").

Invariant maintained throughout: **a node holds a record for an OID if
and only if its parent (transitively up to the root) holds a forwarding
pointer leading to it.**  Pointer propagation therefore stops as soon
as it meets a node that already had a record — the paper's "tree of
forwarding pointers from the root node" with shared suffixes.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..core.ids import ObjectId
from ..sim.rpc import Forward, RpcContext, UdpRpcClient, UdpRpcServer
from ..sim.stable import StableStore
from ..sim.topology import Domain, Level
from ..sim.transport import Host
from ..sim.world import World
from .auth import verify_mutation
from .records import NodeRecord

__all__ = ["NodeHandle", "DirectoryNode", "GLS_PORT", "GlsNodeError"]

GLS_PORT = 5300

#: Node-to-node datagram RPC carries the mutation chains only (lookups
#: are forwarded), and must out-wait the whole rest of the chain above
#: it — its persists and its own calls — so the per-hop timeout is
#: generous.
_NODE_RPC_TIMEOUT = 5.0
_NODE_RPC_RETRIES = 2


class GlsNodeError(Exception):
    """Raised for protocol violations between directory nodes."""


class NodeHandle:
    """Addressing for a logical directory node (its subnode endpoints)."""

    def __init__(self, domain_path: str, endpoints: List[Tuple[str, int]]):
        if not endpoints:
            raise GlsNodeError("a node handle needs at least one endpoint")
        self.domain_path = domain_path
        self.endpoints = list(endpoints)

    def pick(self, oid_hex: str) -> Tuple[str, int]:
        """The subnode responsible for ``oid_hex`` (hash partitioning)."""
        if len(self.endpoints) == 1:
            return self.endpoints[0]
        index = ObjectId.from_hex(oid_hex).shard(len(self.endpoints))
        return self.endpoints[index]


class DirectoryNode:
    """One directory (sub)node: records, pointers, and the protocol."""

    COUNTS = ("lookups_handled", "inserts_handled", "deletes_handled",
              "pointer_updates", "rejected_mutations")

    def __init__(self, world: World, host: Host, domain: Domain,
                 index: int = 0, port: int = GLS_PORT,
                 auth_key: Optional[bytes] = None,
                 transport: str = "udp"):
        if transport not in ("udp", "tcp"):
            raise GlsNodeError("transport must be 'udp' or 'tcp'")
        self.world = world
        self.host = host
        self.domain = domain
        self.port = port
        self.auth_key = auth_key
        #: "udp" per the paper (§6.3); "tcp" for ablation A3, which
        #: pays a connection handshake per hop.
        self.transport = transport
        self.records: Dict[str, NodeRecord] = {}
        self.persistence = StableStore(
            host, namespace="gls:%s:%d" % (domain.path, index))
        self._rng = world.rng_for("gls-node-%s-%d" % (domain.path, index))
        # Load counters: E6 and the tree's gls.requests instrument
        # read their sum, requests_handled.
        self.lookups_handled = 0
        self.inserts_handled = 0
        self.deletes_handled = 0
        self.pointer_updates = 0
        self.rejected_mutations = 0
        self.recovery = None  # a restarted host's reload (_reload)

    @property
    def level(self) -> Level:
        return self.domain.level

    @property
    def requests_handled(self) -> int:
        return (self.lookups_handled + self.inserts_handled
                + self.deletes_handled + self.pointer_updates)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self.transport == "udp":
            server = UdpRpcServer(self.host, self.port)
        else:
            from ..sim.rpc import RpcServer
            server = RpcServer(self.host, self.port)
        server.register("lookup", self._handle_lookup)
        server.register("lookup_down", self._handle_lookup_down)
        server.register("insert", self._handle_insert)
        server.register("insert_pointer", self._handle_insert_pointer)
        server.register("delete", self._handle_delete)
        server.register("delete_pointer", self._handle_delete_pointer)
        server.start()
        self._server = server
        self._client = UdpRpcClient(self.host, timeout=_NODE_RPC_TIMEOUT,
                                    retries=_NODE_RPC_RETRIES)
        if self.host.incarnation:
            self.recovery = self.host.spawn(self._reload())

    def stop(self) -> None:
        self._server.stop()
        self._client.close()

    def _reload(self) -> Generator:
        """Reload the records the disk holds."""
        stored = yield from self.persistence.load_all()
        for oid_hex, wire in stored.items():
            self.records[oid_hex] = NodeRecord.from_wire(wire)

    # -- helpers -------------------------------------------------------------

    def _endpoint(self, handle: NodeHandle, oid_hex: str
                  ) -> Tuple[Host, int]:
        host_name, port = handle.pick(oid_hex)
        try:
            return self.world.hosts[host_name], port
        except KeyError:
            raise GlsNodeError("unknown directory host %r" % host_name)

    def _call(self, handle: NodeHandle, oid_hex: str, method: str,
              args: dict) -> Generator[Any, Any, Any]:
        target, port = self._endpoint(handle, oid_hex)
        if self.transport == "tcp":
            from ..sim import rpc as _rpc
            value = yield from _rpc.call(self.host, target, port, method,
                                         args)
        else:
            value = yield from self._client.call(target, port, method, args)
        return value

    def _persist(self, oid_hex: str) -> Generator:
        record = self.records.get(oid_hex)
        if record is None:
            yield from self.persistence.remove(oid_hex)
        else:
            yield from self.persistence.save(oid_hex, record.to_wire())

    # -- lookup ---------------------------------------------------------------

    def _handle_lookup(self, ctx: RpcContext, args: dict) -> Generator:
        """Walk-up phase of a resolution (paper §3.5)."""
        self.lookups_handled += 1
        oid_hex = args["oid"]
        hops = args.get("hops", 0)
        record = self.records.get(oid_hex)
        if record is not None and record.contact_addresses:
            return {"cas": list(record.contact_addresses), "hops": hops,
                    "found": self.domain.path,
                    "found_level": int(self.level)}
        if record is not None and record.forwarding_pointers:
            reply = yield from self._pass_on(
                self.children[self._choose_pointer(record)], oid_hex,
                "lookup_down", hops + 1)
            return reply
        if self.parent is not None:
            reply = yield from self._pass_on(self.parent, oid_hex, "lookup",
                                             hops + 1)
            return reply
        return {"cas": [], "hops": hops, "found": None, "found_level": None}

    def _handle_lookup_down(self, ctx: RpcContext, args: dict) -> Generator:
        """Walk-down phase: follow the tree of forwarding pointers."""
        self.lookups_handled += 1
        oid_hex = args["oid"]
        hops = args.get("hops", 0)
        record = self.records.get(oid_hex)
        if record is not None and record.contact_addresses:
            return {"cas": list(record.contact_addresses), "hops": hops,
                    "found": self.domain.path,
                    "found_level": int(self.level)}
        if record is not None and record.forwarding_pointers:
            reply = yield from self._pass_on(
                self.children[self._choose_pointer(record)], oid_hex,
                "lookup_down", hops + 1)
            return reply
        # Tree inconsistency (e.g. lost delete): report not-found.
        return {"cas": [], "hops": hops, "found": None, "found_level": None}

    def _pass_on(self, handle: NodeHandle, oid_hex: str, method: str,
                 hops: int) -> Generator:
        """The next step of a walk: over datagrams a :class:`Forward`
        (the node that holds the record answers the caller), over
        connections a nested call whose reply this node relays."""
        args = {"oid": oid_hex, "hops": hops}
        if self.transport == "udp":
            target, port = self._endpoint(handle, oid_hex)
            return Forward(target, port, method, args)
        reply = yield from self._call(handle, oid_hex, method, args)
        return reply

    def _choose_pointer(self, record: NodeRecord) -> str:
        """Pick one forwarding pointer; "one is chosen at random"."""
        pointers = sorted(record.forwarding_pointers)
        if len(pointers) == 1:
            return pointers[0]
        return self._rng.choice(pointers)

    # -- insert ----------------------------------------------------------------

    def _handle_insert(self, ctx: RpcContext, args: dict) -> Generator:
        """Store a contact address (at this level or further up).

        ``store_level`` implements §3.5's mobile-object optimisation:
        "storing the addresses at intermediate nodes may … lead to
        considerably more efficient look-up operations".
        """
        oid_hex = args["oid"]
        ca_wire = args["ca"]
        if not verify_mutation(self.auth_key, "insert", oid_hex, ca_wire,
                               args.get("auth")):
            self.rejected_mutations += 1
            raise GlsNodeError("unauthorized registration")
        store_level = args.get("store_level", int(Level.SITE))
        self.inserts_handled += 1
        if int(self.level) < store_level and self.parent is not None:
            reply = yield from self._call(self.parent, oid_hex, "insert",
                                          args)
            return reply
        existed = oid_hex in self.records
        record = self.records.setdefault(oid_hex, NodeRecord())
        record.add_address(ca_wire)
        yield from self._persist(oid_hex)
        if not existed and self.parent is not None:
            yield from self._call(self.parent, oid_hex, "insert_pointer",
                                  {"oid": oid_hex,
                                   "child": self.domain.path})
        return {"stored_at": self.domain.path,
                "stored_level": int(self.level)}

    def _handle_insert_pointer(self, ctx: RpcContext, args: dict
                               ) -> Generator:
        self.pointer_updates += 1
        oid_hex = args["oid"]
        child_path = args["child"]
        if child_path not in self.children:
            raise GlsNodeError("%r is not a child of %r"
                               % (child_path, self.domain.path))
        existed = oid_hex in self.records
        record = self.records.setdefault(oid_hex, NodeRecord())
        record.add_pointer(child_path)
        yield from self._persist(oid_hex)
        if not existed and self.parent is not None:
            # New record here: extend the pointer path upward.
            yield from self._call(self.parent, oid_hex, "insert_pointer",
                                  {"oid": oid_hex,
                                   "child": self.domain.path})
        return {"linked_at": self.domain.path}

    # -- delete -----------------------------------------------------------------

    def _handle_delete(self, ctx: RpcContext, args: dict) -> Generator:
        oid_hex = args["oid"]
        ca_wire = args["ca"]
        if not verify_mutation(self.auth_key, "delete", oid_hex, ca_wire,
                               args.get("auth")):
            self.rejected_mutations += 1
            raise GlsNodeError("unauthorized deregistration")
        self.deletes_handled += 1
        record = self.records.get(oid_hex)
        if record is not None and ca_wire in record.contact_addresses:
            record.remove_address(ca_wire)
            removed_here = True
            if record.empty:
                del self.records[oid_hex]
                yield from self._persist(oid_hex)
                if self.parent is not None:
                    yield from self._call(
                        self.parent, oid_hex, "delete_pointer",
                        {"oid": oid_hex, "child": self.domain.path})
            else:
                yield from self._persist(oid_hex)
            return {"removed": removed_here}
        if self.parent is not None:
            # Not stored here: maybe stored at a higher level.
            reply = yield from self._call(self.parent, oid_hex, "delete",
                                          args)
            return reply
        return {"removed": False}

    def _handle_delete_pointer(self, ctx: RpcContext, args: dict
                               ) -> Generator:
        self.pointer_updates += 1
        oid_hex = args["oid"]
        child_path = args["child"]
        record = self.records.get(oid_hex)
        if record is None:
            return {"unlinked_at": self.domain.path, "noop": True}
        record.remove_pointer(child_path)
        if record.empty:
            del self.records[oid_hex]
            yield from self._persist(oid_hex)
            if self.parent is not None:
                yield from self._call(self.parent, oid_hex, "delete_pointer",
                                      {"oid": oid_hex,
                                       "child": self.domain.path})
        else:
            yield from self._persist(oid_hex)
        return {"unlinked_at": self.domain.path}
