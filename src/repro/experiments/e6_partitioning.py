"""Experiment E6 — §3.5: partitioning directory nodes into subnodes.

"The apparent problem with this design is that the root node … [has] to
store a lot of forwarding pointers and handle a lot of requests … Our
solution to this problem is to partition a directory node into one or
more directory subnodes.  Each subnode is made responsible for a
specific part of the object-identifier space via a special hashing
technique and can run on a separate machine."

We register a population of objects from the sites of region r0 and
then resolve them from a *distant* client in r1 (forcing walks through
the root), with the root (and region) logical nodes split into
k ∈ {1, 2, 4, 8} subnodes.  Reported per k: per-subnode request load
and record count at the root (max and mean), plus total lookup latency
(which should stay flat — partitioning relieves load without changing
path lengths).

The root's slices are location-aware (see :mod:`repro.gls.tree`): an
OID lands on a root subnode nearest its creator, so r0's objects load
only the root subnodes in r0.  That is the trade-off: at k = 2 (one
subnode per region) this r0-only population relieves nothing, while
k = 4 and k = 8 still spread it over r0's two and four subnodes.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.metrics import Series
from ..analysis.tables import Table, format_seconds
from ..core.ids import ContactAddress
from ..gls.service import GlsClient
from ..gls.tree import GlsTree
from ..sim.topology import Topology
from ..sim.world import World

__all__ = ["run_partitioning_experiment", "format_result"]


def _run_with_subnodes(k: int, seed: int, object_count: int,
                       lookups: int) -> dict:
    world = World(topology=Topology.balanced(2, 2, 2, 2), seed=seed)
    tree = GlsTree(world, partition={"": k, "r0": k, "r1": k})

    # Register objects from alternating home sites in region r0.
    sites = [site for site in world.topology.sites
             if site.path.startswith("r0")]
    registrars: List[GlsClient] = []
    for index, site in enumerate(sites):
        host = world.host("gos-%d" % index, site)
        registrars.append(GlsClient(world, host, tree))
    oids: List[str] = []

    def register_all():
        for index in range(object_count):
            client = registrars[index % len(registrars)]
            wire = ContactAddress(
                client.host.name, 7100, "client_server", role="server",
                impl_id="gdn.package",
                site_path=client.host.site.path).to_wire()
            oid_hex = yield from client.register(None, wire)
            oids.append(oid_hex)

    world.run_until(world.sim.process(register_all()), limit=1e9)

    # Distant clients (region r1) resolve them: every walk crosses the
    # root.
    client_host = world.host("remote-client", "r1/c1/m1/s1")
    client = GlsClient(world, client_host, tree)
    latency = Series("lookup")

    def resolve_all():
        for count in range(lookups):
            oid_hex = oids[count % len(oids)]
            start = world.now
            reply = yield from client.lookup_detailed(oid_hex)
            assert reply["cas"], "object must resolve"
            latency.add(world.now - start)

    world.run_until(client_host.spawn(resolve_all()), limit=1e9)

    root_nodes = tree.root_nodes()
    loads = [node.requests_handled for node in root_nodes]
    records = [len(node.records) for node in root_nodes]
    return {
        "subnodes": k,
        "root_load_max": max(loads),
        "root_load_mean": sum(loads) / len(loads),
        "root_records_max": max(records),
        "root_records_total": sum(records),
        "latency": latency,
    }


def run_partitioning_experiment(seed: int = 23, object_count: int = 64,
                                lookups: int = 128,
                                subnode_counts: List[int] = (1, 2, 4, 8)
                                ) -> Dict:
    rows = [_run_with_subnodes(k, seed, object_count, lookups)
            for k in subnode_counts]
    return {"rows": rows, "objects": object_count, "lookups": lookups}


def format_result(result: Dict) -> str:
    table = Table(["root subnodes", "max subnode load", "mean subnode load",
                   "max subnode records", "mean lookup"],
                  title="E6 / §3.5 - root directory-node partitioning "
                        "(%d objects, %d remote lookups)"
                        % (result["objects"], result["lookups"]))
    for row in result["rows"]:
        table.add_row(row["subnodes"], row["root_load_max"],
                      "%.1f" % row["root_load_mean"],
                      row["root_records_max"],
                      format_seconds(row["latency"].mean))
    return table.render()


def assert_shape(result: Dict) -> None:
    rows = result["rows"]
    # The hot spot shrinks roughly with k...
    assert rows[-1]["root_load_max"] < rows[0]["root_load_max"]
    assert rows[-1]["root_records_max"] < rows[0]["root_records_total"]
    # ...while the lookup path stays the same length.
    baseline = rows[0]["latency"].mean
    for row in rows[1:]:
        assert row["latency"].mean < baseline * 1.5
