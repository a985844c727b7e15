"""The moderator tool (paper §4, §6.1).

"A GDN moderator can add, update and delete package DSOs from the GDN,
using a special tool."  Creating a package follows §6.1's procedure
exactly:

1. the moderator defines the replication scenario (protocol + which
   object servers host replicas);
2. a "create first replica" command goes to one object server in the
   scenario; the GLS allocates the object identifier during contact-
   address registration and the OID comes back to the tool;
3. the remaining servers receive "bind to DSO <OID>, create replica"
   commands;
4. the package's name is registered with the GNS Naming Authority.

All tool traffic runs over two-way-authenticated TLS channels, so
object servers and the naming authority see the moderator's principal
and can enforce §6.1's authorization requirements.  The channels are
those of the tool's runtime (its :class:`~repro.sim.rpc.ChannelPool`):
commands and DSO invocations to one server share one connection.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Mapping, Optional, Tuple

from ..core.ids import ObjectId
from ..core.runtime import Runtime
from ..gos.server import GlobeObjectServer
from ..sim import rpc
from ..sim.transport import Host
from ..sim.world import World
from .package import PACKAGE_IMPL_ID
from .scenario import ReplicationScenario

__all__ = ["ModeratorTool", "ModerationError"]


class ModerationError(Exception):
    """Raised when a moderation operation fails."""


class ModeratorTool:
    """One moderator's command-line tool, as a driveable object."""

    def __init__(self, world: World, host: Host, runtime: Runtime,
                 object_servers: Mapping[str, GlobeObjectServer],
                 authority_endpoint: Tuple[str, int],
                 name_service, search_endpoint: Tuple[str, int]):
        """``object_servers`` maps object-server names to the servers,
        read at each command (not copied), so a server added after the
        tool can host replicas; ``name_service`` resolves object names
        (a GlobeNameService); ``search_endpoint`` is the
        attribute-search service packages are indexed in."""
        self.world = world
        self.host = host
        self.runtime = runtime
        self.object_servers = object_servers
        self.authority_endpoint = tuple(authority_endpoint)
        self.name_service = name_service
        self.search_endpoint = tuple(search_endpoint)
        #: Local catalog of packages this moderator manages:
        #: object name -> {"oid": hex, "scenario": ReplicationScenario}.
        self.catalog: Dict[str, dict] = {}

    # -- plumbing ---------------------------------------------------------

    def _call(self, endpoint: Tuple[str, int], method: str, args: dict
              ) -> Generator:
        """One call over the runtime's pooled channel to ``endpoint``:
        a session of N commands opens each service's (two-way TLS)
        connection once, not N times."""
        host_name, port = endpoint
        channel = yield from self.runtime.pool.channel(
            self.world.hosts[host_name], port)
        reply = yield from channel.call(method, args)
        return reply

    def _gos_call(self, gos_name: str, method: str, args: dict
                  ) -> Generator:
        gos = self.object_servers.get(gos_name)
        if gos is None:
            raise ModerationError("unknown object server %r" % gos_name)
        try:
            reply = yield from self._call((gos.host.name, gos.port), method,
                                          args)
        except rpc.RpcFault as fault:
            raise ModerationError("%s on %s failed: %s"
                                  % (method, gos_name, fault))
        return reply

    def _authority_call(self, method: str, args: dict) -> Generator:
        try:
            reply = yield from self._call(self.authority_endpoint,
                                          method, args)
        except rpc.RpcFault as fault:
            raise ModerationError("%s failed: %s" % (method, fault))
        return reply

    def _search_call(self, method: str, args: dict) -> Generator:
        try:
            reply = yield from self._call(self.search_endpoint,
                                          method, args)
        except rpc.RpcFault as fault:
            raise ModerationError("%s failed: %s" % (method, fault))
        return reply

    # -- operations -----------------------------------------------------------

    @staticmethod
    def _implied_attributes(object_name: str) -> Dict[str, str]:
        """Attributes implied by the hierarchical name (§5: "the first
        part of the name gives some information about what a software
        package does")."""
        parts = [part for part in object_name.split("/") if part]
        attributes = {"name": parts[-1].lower()}
        if len(parts) >= 2:
            attributes["category"] = parts[-2].lower()
        if len(parts) >= 3:
            attributes["section"] = parts[0].lower()
        return attributes

    def create_package(self, object_name: str, files: Dict[str, bytes],
                       scenario: ReplicationScenario,
                       attributes: Optional[Dict[str, str]] = None
                       ) -> Generator[object, object, ObjectId]:
        """Create, populate, replicate and name a new package DSO.

        ``oid = yield from tool.create_package("/apps/Gimp", files, sc)``
        """
        if object_name in self.catalog:
            raise ModerationError("package %r already exists" % object_name)
        # Step 1-2: first replica; the GLS allocates the OID.
        created = yield from self._gos_call(
            scenario.master_gos, "create_object",
            {"impl_id": PACKAGE_IMPL_ID, "protocol": scenario.protocol,
             "role": scenario.master_role})
        oid = ObjectId.from_hex(created["oid"])
        master_ca = created["ca"]
        # Populate contents and attributes through the object's own
        # methods *before* creating the other replicas: each joining
        # replica then fetches the complete state exactly once, instead
        # of receiving one state push per mutation.
        representative = yield from self.runtime.bind(oid, refresh=True)
        for path in sorted(files):
            yield from representative.invoke(
                "addFile", {"path": path, "data": files[path]})
        all_attributes = self._implied_attributes(object_name)
        all_attributes.update(attributes or {})
        for key in sorted(all_attributes):
            yield from representative.invoke(
                "setAttribute", {"key": key, "value": all_attributes[key]})
        # Step 3: additional replicas bind to the DSO.
        for gos_name in scenario.slave_gos:
            yield from self._gos_call(
                gos_name, "create_replica",
                {"oid": oid.hex, "impl_id": PACKAGE_IMPL_ID,
                 "protocol": scenario.protocol,
                 "role": "slave", "master": master_ca})
        # Step 4: register the name, then index searchable attributes.
        yield from self._authority_call(
            "add_name", {"name": object_name, "oid": oid.hex})
        yield from self._search_call(
            "register", {"name": object_name,
                         "attributes": all_attributes})
        self.catalog[object_name] = {"oid": oid.hex, "scenario": scenario,
                                     "master_ca": master_ca,
                                     "attributes": all_attributes}
        return oid

    def add_replica(self, object_name: str, gos_name: str
                    ) -> Generator:
        """Adapt a package's replication scenario by adding a replica.

        §3.1: "the information's replication scenario should adapt to
        changes in its popularity" — this is the adaptation primitive:
        one more "bind to DSO, create replica" command, after which the
        GLS starts answering nearby lookups with the new address.
        """
        entry = self.catalog.get(object_name)
        if entry is None:
            raise ModerationError(
                "this tool does not manage %r" % object_name)
        scenario: ReplicationScenario = entry["scenario"]
        if scenario.protocol == "client_server":
            raise ModerationError(
                "client/server objects hold a single copy; republish "
                "with master/slave to replicate %r" % object_name)
        if gos_name in scenario.slave_gos or gos_name == scenario.master_gos:
            raise ModerationError("%s already hosts %r"
                                  % (gos_name, object_name))
        yield from self._gos_call(
            gos_name, "create_replica",
            {"oid": entry["oid"], "impl_id": PACKAGE_IMPL_ID,
             "protocol": scenario.protocol, "role": "slave",
             "master": entry["master_ca"]})
        scenario.slave_gos.append(gos_name)

    def drop_replica(self, object_name: str, gos_name: str) -> Generator:
        """Shrink a scenario: remove one (non-master) replica."""
        entry = self.catalog.get(object_name)
        if entry is None:
            raise ModerationError(
                "this tool does not manage %r" % object_name)
        scenario: ReplicationScenario = entry["scenario"]
        if gos_name not in scenario.slave_gos:
            raise ModerationError("%s hosts no removable replica of %r"
                                  % (gos_name, object_name))
        yield from self._gos_call(gos_name, "remove_replica",
                                  {"oid": entry["oid"]})
        scenario.slave_gos.remove(gos_name)

    def update_package(self, object_name: str,
                       add_files: Optional[Dict[str, bytes]] = None,
                       del_files: Optional[List[str]] = None,
                       attributes: Optional[Dict[str, str]] = None
                       ) -> Generator[object, object, int]:
        """Modify a package's contents; returns the new version."""
        oid_hex = yield from self._resolve(object_name)
        oid = ObjectId.from_hex(oid_hex)
        representative = yield from self.runtime.bind(oid)
        version = 0
        for path in sorted(del_files or []):
            yield from representative.invoke("delFile", {"path": path})
        for path in sorted(add_files or {}):
            version = yield from representative.invoke(
                "addFile", {"path": path, "data": add_files[path]})
        for key in sorted(attributes or {}):
            yield from representative.invoke(
                "setAttribute", {"key": key, "value": attributes[key]})
        return version

    def remove_package(self, object_name: str) -> Generator:
        """Unname and remove all replicas of a package."""
        entry = self.catalog.get(object_name)
        if entry is None:
            raise ModerationError(
                "this tool does not manage %r" % object_name)
        # Remove the name first so new binds stop immediately.
        yield from self._authority_call("remove_name",
                                        {"name": object_name})
        yield from self._search_call("unregister", {"name": object_name})
        scenario: ReplicationScenario = entry["scenario"]
        for gos_name in [scenario.master_gos] + scenario.slave_gos:
            yield from self._gos_call(gos_name, "remove_replica",
                                      {"oid": entry["oid"]})
        self.runtime.unbind(ObjectId.from_hex(entry["oid"]))
        del self.catalog[object_name]

    def _resolve(self, object_name: str) -> Generator:
        entry = self.catalog.get(object_name)
        if entry is not None:
            return entry["oid"]
        oid_hex = yield from self.name_service.resolve(object_name)
        return oid_hex
