"""Experiment E2 — Figure 2 / §3.5: GLS lookup cost is proportional to
the distance between client and nearest replica.

"The advantage of this design is, that if a distributed shared object
has a representative near to the client, the Globe Location Service
will find that representative using only 'local' communication.  In
other words, the cost of a look up increases proportional to the
distance between client and nearest representative."

One object is registered at a fixed site; clients at increasing
separation resolve it.  The series reports hops (steps from one
directory node to the next) and simulated latency per separation
level — the figure's x-axis is exactly the domain-hierarchy distance.
A lookup is forwarded along the walk and answered once, so a walk of h
hops costs h + 2 messages: the client's request, h forwards and the
reply from the node holding the record.

Telemetry: one shared ``LoadStats`` on ``world.metrics``, with one
registry *phase window* per separation level — each row's latency and
request counts are the window's deltas, so the per-level breakdown
comes from the same instruments every other experiment uses.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.tables import Table, format_seconds
from ..core.ids import ContactAddress
from ..gls.service import GlsClient
from ..gls.tree import GlsTree
from ..sim.topology import Level, Topology
from ..sim.world import World
from ..workloads.loadgen import LoadStats
from ..workloads.scenario import ClosedLoopScenario

__all__ = ["run_gls_locality_experiment", "format_result", "assert_shape"]

_CLIENT_SITES = [
    (Level.SITE, "r0/c0/m0/s0"),
    (Level.CITY, "r0/c0/m0/s1"),
    (Level.COUNTRY, "r0/c0/m1/s0"),
    (Level.REGION, "r0/c1/m0/s0"),
    (Level.WORLD, "r1/c1/m1/s1"),
]


def run_gls_locality_experiment(seed: int = 11,
                                lookups_per_point: int = 10) -> Dict:
    topology = Topology.balanced(regions=2, countries=2, cities=2, sites=2)
    world = World(topology=topology, seed=seed)
    tree = GlsTree(world)

    replica_host = world.host("gos-home", "r0/c0/m0/s0")
    registrar = GlsClient(world, replica_host, tree)
    ca_wire = ContactAddress("gos-home", 7100, "client_server",
                             role="server", impl_id="gdn.package",
                             site_path="r0/c0/m0/s0").to_wire()

    def register():
        oid_hex = yield from registrar.register(None, ca_wire)
        return oid_hex

    oid_hex = world.run_until(replica_host.spawn(register()), limit=1e6)

    # One stats bundle for the whole experiment; each separation level
    # gets its own phase window, and the rows are the window deltas.
    stats = LoadStats(registry=world.metrics, prefix="e2")
    rows: List[dict] = []
    for level, site in _CLIENT_SITES:
        client_host = world.host("client-%s" % level.name.lower(), site)
        client = GlsClient(world, client_host, tree)
        last = {}

        def lookup(arrival, client=client, last=last):
            reply = yield from client.lookup_detailed(oid_hex)
            last["hops"] = reply["hops"]
            last["found"] = reply["found"]
            assert reply["cas"], "lookup must find the replica"
            return True

        # One client resolving back-to-back: a closed loop with zero
        # think time reproduces the figure's sequential lookups.
        scenario = ClosedLoopScenario(clients=1, think_time=0.0,
                                      requests_per_client=lookups_per_point,
                                      label="gls-%s" % level.name.lower())
        window = world.metrics.phase(level.name, now=world.now)
        world.run_until(world.sim.process(scenario.drive(
            world.sim, lookup, rng=world.rng_for("e2-" + level.name),
            stats=stats)), limit=1e7)
        window.close(now=world.now)
        point = stats.phase_summary(window)
        assert point["ok"] == lookups_per_point
        rows.append({"separation": level.name, "hops": last["hops"],
                     "latency": point["mean"],
                     "found_at": last["found"] or "<root>"})
    world.metrics.end_phase(now=world.now)
    assert stats.ok == lookups_per_point * len(_CLIENT_SITES)
    return {"rows": rows, "oid": oid_hex}


def format_result(result: Dict) -> str:
    table = Table(["client separation", "node hops", "lookup latency",
                   "record found at"],
                  title="E2 / Figure 2 - GLS lookup cost vs client-replica "
                        "distance (replica at r0/c0/m0/s0)")
    for row in result["rows"]:
        table.add_row(row["separation"], row["hops"],
                      format_seconds(row["latency"]), row["found_at"])
    return table.render()


def assert_shape(result: Dict) -> None:
    """The figure's claim: monotone growth with distance."""
    hops = [row["hops"] for row in result["rows"]]
    latencies = [row["latency"] for row in result["rows"]]
    assert hops == sorted(hops), "hops must grow with separation"
    assert latencies == sorted(latencies), \
        "latency must grow with separation"
    assert hops[0] == 0, "same-site lookups stay at the leaf node"
