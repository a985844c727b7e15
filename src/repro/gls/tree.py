"""Building the GLS directory-node hierarchy over a topology (Fig 2).

"We organize the Internet into a hierarchy of domains … with each
domain in the hierarchy we associate a directory node."  The tree
builder creates one logical node per topology domain (site up to the
world root), optionally partitioned into hash-sliced subnodes, places
subnode hosts on sites inside the domain, and installs each subnode,
wired to its parent and children, on its host.

Placement: subnode i of a domain's node runs on the first site of the
domain's child i mod n (n children; a site's node on the site itself),
so an unpartitioned node sits on its domain's first site and a
partitioned one spreads over its children.  Partitioned into one
subnode per region (as :class:`~repro.gdn.deployment.GdnDeployment`
builds it), the root has a subnode in every region.

The root is location-aware (§3.5's "special hashing technique"): a
:class:`~repro.gls.service.GlsClient` draws OIDs until the root slice
of one is a subnode nearest the registering host.  With a root subnode
in every region, a registration's pointer chain ends in its own region,
and a lookup from another region turns there, crossing WORLD once going
up and once with the answer, not a third time via a root elsewhere.
Only the root: every level hashes the same ``ObjectId.shard``, so with
equal subnode counts at two partitioned levels one slice index decides
both, and a creator in r0's second country would need it even for the
root and odd for r0's node, which no OID satisfies.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

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
                 transport: str = "udp"):
        """``partition`` maps a domain path (e.g. ``""`` for the root)
        to its subnode count, one for an unlisted domain; ``transport``
        is the node protocol, "udp" (the paper) or "tcp" (ablation A3)."""
        self.world = world
        self.partition = partition or {}
        self.auth_key = auth_key
        self.port = port
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
        hosts = {}
        for domain in domains:
            children = list(domain.children.values()) or [domain]
            hosts[domain.path] = [
                self.world.host(self._host_name(domain, index),
                                next(children[index % len(children)].sites()))
                for index in range(self._subnode_count(domain))]
            self.handles[domain.path] = NodeHandle(
                domain.path, [(host.name, self.port)
                              for host in hosts[domain.path]])
            self.nodes[domain.path] = [None] * len(hosts[domain.path])
        for domain in domains:
            for index, host in enumerate(hosts[domain.path]):
                host.install(partial(self._boot, domain, index, host))
        self.bind_metrics(self.world.metrics)

    def _boot(self, domain: Domain, index: int, host) -> DirectoryNode:
        """Subnode ``index`` of ``domain``'s node on ``host``: wired to
        its parent's and children's handles and started."""
        node = DirectoryNode(self.world, host, domain, index=index,
                             port=self.port, auth_key=self.auth_key,
                             transport=self.transport)
        node.parent = (self.handles[domain.parent.path]
                       if domain.parent is not None else None)
        node.children = {child.path: self.handles[child.path]
                         for child in domain.children.values()}
        node.start()
        self.nodes[domain.path][index] = node
        return node

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
