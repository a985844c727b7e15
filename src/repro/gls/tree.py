"""Building the GLS directory-node hierarchy over a topology (Fig 2).

"We organize the Internet into a hierarchy of domains … with each
domain in the hierarchy we associate a directory node."  The tree
builder creates one logical node per topology domain (site up to the
world root), optionally partitioned into hash-sliced subnodes, places
subnode hosts on sites inside the domain, and wires parent/child
handles.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.stable import DiskStore
from ..sim.topology import Domain
from ..sim.world import World
from .node import GLS_PORT, DirectoryNode, NodeHandle

__all__ = ["GlsTree"]


class GlsTree:
    """The deployed Globe Location Service for one world."""

    def __init__(self, world: World,
                 partition: Optional[Dict[str, int]] = None,
                 auth_key: Optional[bytes] = None,
                 port: int = GLS_PORT,
                 disk: Optional[DiskStore] = None,
                 transport: str = "udp"):
        """``partition`` maps a domain path (e.g. ``""`` for the root)
        to its subnode count, one for an unlisted domain; ``transport``
        is the node protocol, "udp" (the paper) or "tcp" (ablation A3)."""
        self.world = world
        self.partition = partition or {}
        self.auth_key = auth_key
        self.port = port
        self.disk = disk if disk is not None else DiskStore()
        self.transport = transport
        #: domain path -> list of subnodes (the logical node).
        self.nodes: Dict[str, List[DirectoryNode]] = {}
        #: domain path -> handle.
        self.handles: Dict[str, NodeHandle] = {}
        self._build()

    # -- construction -------------------------------------------------------

    def _subnode_count(self, domain: Domain) -> int:
        return max(1, self.partition.get(domain.path, 1))

    def _host_name(self, domain: Domain, index: int) -> str:
        label = domain.path.replace("/", ".") or "root"
        return "glsnode-%s-%d" % (label, index)

    def _build(self) -> None:
        topology = self.world.topology
        domains = list(topology.world.subtree())
        # Create subnode hosts and nodes, leaves last so parents exist
        # first for wiring convenience (order is irrelevant otherwise).
        for domain in domains:
            count = self._subnode_count(domain)
            sites = list(domain.sites())
            subnodes = []
            endpoints = []
            for index in range(count):
                site = sites[index % len(sites)]
                host = self.world.host(self._host_name(domain, index), site)
                node = DirectoryNode(self.world, host, domain, index=index,
                                     port=self.port, auth_key=self.auth_key,
                                     disk=self.disk,
                                     transport=self.transport)
                subnodes.append(node)
                endpoints.append((host.name, self.port))
            self.nodes[domain.path] = subnodes
            self.handles[domain.path] = NodeHandle(domain.path, endpoints)
        # Wire parents and children, then start.
        for domain in domains:
            handle_children = {
                child.path: self.handles[child.path]
                for child in domain.children.values()}
            parent_handle = (self.handles[domain.parent.path]
                             if domain.parent is not None else None)
            for node in self.nodes[domain.path]:
                node.parent = parent_handle
                node.children = dict(handle_children)
                node.start()
        self.bind_metrics(self.world.metrics)

    def bind_metrics(self, registry, prefix: str = "gls") -> None:
        """Tree-wide request and record totals."""
        registry.counter(prefix + ".requests", fn=self.total_requests)
        registry.gauge(prefix + ".records", fn=self.total_records)

    # -- access ----------------------------------------------------------------

    def leaf_handle(self, site: Domain) -> NodeHandle:
        """The directory node serving a site's leaf domain."""
        return self.handles[site.path]

    def root_nodes(self) -> List[DirectoryNode]:
        return self.nodes[""]

    def node_for(self, domain_path: str, oid_hex: str) -> DirectoryNode:
        """The subnode of a logical node responsible for ``oid_hex``."""
        handle = self.handles[domain_path]
        host_name, _port = handle.pick(oid_hex)
        for node in self.nodes[domain_path]:
            if node.host.name == host_name:
                return node
        raise KeyError(domain_path)

    def total_records(self) -> int:
        return sum(len(node.records)
                   for subnodes in self.nodes.values()
                   for node in subnodes)

    def total_requests(self) -> int:
        return sum(node.requests_handled
                   for subnodes in self.nodes.values()
                   for node in subnodes)
