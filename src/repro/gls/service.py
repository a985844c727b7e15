"""Client stub for the Globe Location Service (paper §3.4/§3.5).

Every Globe runtime and object server talks to the GLS through this
stub: lookups start at the directory node of the *client's own leaf
domain* (that is what makes lookup cost proportional to the distance of
the nearest replica), registrations go to the leaf node of the
registering replica's domain, and — per §6.1 — the stub allocates the
object identifier on first registration.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from ..core.ids import ObjectId
from ..sim.rpc import RpcFault, UdpRpcClient
from ..sim.topology import Domain, TopologyError, nearest_first
from ..sim.transport import Host
from ..sim.world import World
from .auth import sign_mutation
from .node import NodeHandle
from .tree import GlsTree

__all__ = ["GlsClient", "GlsError"]


class GlsError(Exception):
    """Raised when a GLS operation fails."""


class GlsClient:
    """Per-host access point to the location service."""

    def __init__(self, world: World, host: Host, tree: GlsTree,
                 auth_key: Optional[bytes] = None,
                 retry_policy=None):
        """``retry_policy`` (a :class:`~repro.sim.retry.RetryPolicy`)
        replaces the stub's UDP client's fixed discipline (an 8 s
        timeout, two retries) — e.g. jittered exponential backoff so a
        partition heal is not met by a synchronized retry wave."""
        self.world = world
        self.host = host
        self.auth_key = auth_key
        self.transport = tree.transport
        self.leaf: NodeHandle = tree.leaf_handle(host.site)
        self._client = UdpRpcClient(host, timeout=8.0, retries=2,
                                    policy=retry_policy)
        # OIDs come from here: a restarted host's stream is its own.
        self._rng = world.rng_for("gls-client-%s%s" % (
            host.name, "/%d" % host.incarnation if host.incarnation else ""))
        self.lookups = 0

    def _call(self, handle: NodeHandle, oid_hex: str, method: str,
              args: dict) -> Generator[Any, Any, Any]:
        host_name, port = handle.pick(oid_hex)
        target = self.world.hosts[host_name]
        try:
            if self.transport == "tcp":
                from ..sim import rpc as _rpc
                value = yield from _rpc.call(self.host, target, port,
                                             method, args)
            else:
                value = yield from self._client.call(target, port, method,
                                                     args)
        except RpcFault as fault:
            raise GlsError("%s failed: %s" % (method, fault.message))
        return value

    # -- lookup ----------------------------------------------------------------

    def lookup_detailed(self, oid_hex: str
                        ) -> Generator[Any, Any, Dict[str, Any]]:
        """Full lookup reply: contact addresses, hop count, found-at."""
        self.lookups += 1
        reply = yield from self._call(self.leaf, oid_hex, "lookup",
                                      {"oid": oid_hex, "hops": 0})
        return reply

    def lookup(self, oid_hex: str) -> Generator[Any, Any, List[dict]]:
        """Contact addresses for an OID, nearest-first.

        The GLS walk already finds the record nearest to the client;
        within that record we order addresses by topological distance
        from this host, so ``bind`` picks the closest replica.
        """
        reply = yield from self.lookup_detailed(oid_hex)
        topology = self.world.topology

        def site_of(wire: dict) -> Optional[Domain]:
            try:
                return topology.site(wire.get("site", ""))
            except TopologyError:  # an unknown site sorts last
                return None

        return nearest_first(self.host.site, reply.get("cas", ()), site_of)

    # -- registration -------------------------------------------------------------

    def register(self, oid_hex: Optional[str], ca_wire: dict,
                 store_level: int = 0
                 ) -> Generator[Any, Any, str]:
        """Insert a contact address; allocates an OID when none given.

        Paper §6.1: "As part of the registration, an object identifier
        is allocated for the DSO by the GLS."
        """
        if oid_hex is None:
            oid_hex = ObjectId.generate(self._rng).hex
        args = {"oid": oid_hex, "ca": ca_wire, "store_level": store_level}
        if self.auth_key is not None:
            args["auth"] = sign_mutation(self.auth_key, "insert", oid_hex,
                                         ca_wire)
        yield from self._call(self.leaf, oid_hex, "insert", args)
        return oid_hex

    def unregister(self, oid_hex: str, ca_wire: dict) -> Generator:
        args = {"oid": oid_hex, "ca": ca_wire}
        if self.auth_key is not None:
            args["auth"] = sign_mutation(self.auth_key, "delete", oid_hex,
                                         ca_wire)
        yield from self._call(self.leaf, oid_hex, "delete", args)
