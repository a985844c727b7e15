"""E6's back-of-envelope twin: every cell predicted in closed form from
the tree's placement rule, the link parameters and the envelopes'
sizes.

E6 registers 64 objects round-robin from the eight sites of region
``r0`` and looks each up twice, back to back, from ``r1/c1/m1/s1``,
with the root and both region nodes split into k subnodes.

*Load.*  Every registration makes a new root record, so it reaches the
root once (an ``insert_pointer``), and every lookup a region apart
passes the root once (its walk turns there).  The root's subnodes
together handle ``objects + lookups`` requests whatever k is, so the
mean subnode load is ``(objects + lookups) / k``.

*Records.*  The tree places subnode i of a partitioned node on the
first site of its child i mod n, so the root's subnodes alternate
between r0 and r1, and a client allocates an OID whose root slice is
one of the subnodes nearest it.  Every registrar is in r0: every root
record and every root request lands on the ``ceil(k / 2)`` subnodes in
r0, so the busiest of them holds at least ``objects / ceil(k / 2)``
records and handles at least ``(objects + lookups) / ceil(k / 2)``
requests.  At k = 2 that is all of them on one subnode: a population
registered in one region is not spread by slices that follow location.

*Latency.*  A lookup climbs the client's four domains to the root and
comes down the registrar's four: nine directory nodes, eight hops, the
request, eight forwards and the leaf's answer straight to the client
(the E2 twin's walk).  The region nodes are split with the same k and
hash the same shard as the root, so an OID whose root slice lies in
r0 (an even shard) picks, in each region node, the subnode on the
region's first child: every directory node of the walk sits on its
domain's first site, whatever k is, and the mean lookup is flat in k.
Each datagram is charged

    latency(L) + (envelope bytes + framing) / bandwidth(L)

at the separation L of the two hosts it travels between.  E6 runs
without jitter and its lookups are back to back, so a right prediction
agrees to float rounding (:data:`TOLERANCE`).
"""

import math

from repro.core.ids import ContactAddress, ObjectId
from repro.experiments import e6_partitioning as e6
from repro.sim import network
from repro.sim.network import LinkParameters
from repro.sim.serde import HEADER_OVERHEAD, encoded_size
from repro.sim.topology import Level, Topology

#: Relative slack of the latency cells: float rounding.  A missed
#: datagram costs at least a site's latency, whole per-mille of a
#: 380 ms lookup.
TOLERANCE = 1e-6
TOPOLOGY = (2, 2, 2, 2)
OBJECTS = 64
LOOKUPS = 128
SUBNODES = (1, 2, 4, 8)
CLIENT_SITE = "r1/c1/m1/s1"
CLIENT = "remote-client"


def _wire(envelope) -> int:
    """Bytes a datagram is charged."""
    return encoded_size(envelope) + HEADER_OVERHEAD


def _request(method: str, hops: int, oid: str) -> int:
    return _wire({"id": 0, "method": method,
                  "args": {"oid": oid, "hops": hops}, "src": CLIENT})


def _reply(hops: int, registrar: str, site: str) -> int:
    ca_wire = ContactAddress(registrar, 7100, "client_server", role="server",
                             impl_id="gdn.package", site_path=site).to_wire()
    return _wire({"id": 0, "ok": True, "value": {
        "cas": [ca_wire], "hops": hops, "found": site,
        "found_level": int(Level.SITE)}})


def walk(client_site, replica_site):
    """The directory domains a lookup visits, in order: up to the
    lowest common ancestor, then down."""
    lca = Topology.lca(client_site, replica_site)
    up, domain = [], client_site
    while domain is not lca:
        up.append(domain)
        domain = domain.parent
    down, domain = [], replica_site
    while domain is not lca:
        down.append(domain)
        domain = domain.parent
    return up + [lca] + list(reversed(down))


def r0_subnodes(k: int) -> int:
    """Root subnodes the tree places in r0: the even indexes."""
    return math.ceil(k / 2)


def predict(params: LinkParameters) -> dict:
    """{(k, column): (kind, value)}: ``exact`` and ``latency`` cells
    must equal the value, ``floor`` cells must reach it."""
    topology = Topology.balanced(*TOPOLOGY)
    client = topology.site(CLIENT_SITE)
    registrars = [site for site in topology.sites
                  if site.path.startswith("r0")]
    oid = ObjectId(bytes(20)).hex

    def cost(a, b, nbytes):
        level = Topology.separation(a, b)
        return params.latency[level] + nbytes / params.bandwidth[level]

    seconds = []
    for index, site in enumerate(registrars):
        domains = walk(client, site)
        hops = len(domains) - 1
        nodes = [next(domain.sites()) for domain in domains]
        total = cost(client, nodes[0], _request("lookup", 0, oid))
        for hop, (here, there) in enumerate(zip(domains, domains[1:]), 1):
            method = "lookup" if there.level > here.level else "lookup_down"
            total += cost(nodes[hop - 1], nodes[hop],
                          _request(method, hop, oid))
        total += cost(nodes[-1], client,
                      _reply(hops, "gos-%d" % index, site.path))
        seconds.append(total)
    # Objects round-robin over the registrars, each looked up as often.
    lookup = sum(seconds) / len(seconds)
    requests = OBJECTS + LOOKUPS
    cells = {}
    for k in SUBNODES:
        cells[(k, "mean load")] = ("exact", requests / k)
        cells[(k, "max load")] = ("floor", requests / r0_subnodes(k))
        cells[(k, "max records")] = ("floor", OBJECTS / r0_subnodes(k))
        cells[(k, "records")] = ("exact", OBJECTS)
        cells[(k, "lookup")] = ("latency", lookup)
    return cells


def observe(result: dict) -> dict:
    cells = {}
    for row in result["rows"]:
        k = row["subnodes"]
        cells[(k, "mean load")] = row["root_load_mean"]
        cells[(k, "max load")] = row["root_load_max"]
        cells[(k, "max records")] = row["root_records_max"]
        cells[(k, "records")] = row["root_records_total"]
        cells[(k, "lookup")] = row["latency"].mean
    return cells


def _misses(predicted: dict, observed: dict) -> set:
    missed = set()
    for cell, (kind, value) in predicted.items():
        seen = observed[cell]
        if kind == "floor":
            wrong = seen < value
        elif kind == "latency":
            wrong = abs(seen - value) > TOLERANCE * value
        else:
            wrong = seen != value
        if wrong:
            missed.add(cell)
    return missed


def test_the_lookup_walk_and_the_r0_slices():
    topology = Topology.balanced(*TOPOLOGY)
    client = topology.site(CLIENT_SITE)
    assert {len(walk(client, site)) for site in topology.sites
            if site.path.startswith("r0")} == {9}
    assert [r0_subnodes(k) for k in SUBNODES] == [1, 1, 2, 4]


def test_e6_matches_its_twin():
    predicted = predict(LinkParameters())
    observed = observe(e6.run_partitioning_experiment())
    assert set(observed) == set(predicted)
    assert _misses(predicted, observed) == set()


def test_the_mean_lookup_is_flat_in_k():
    rows = e6.run_partitioning_experiment()["rows"]
    assert len({row["latency"].mean for row in rows}) == 1


def test_a_planted_world_latency_fails_exactly_the_latency_cells(
        monkeypatch):
    # Every lookup crosses WORLD twice (region r1 to the root, and the
    # answer back): each latency cell moves, and no count does.
    predicted = predict(LinkParameters())
    monkeypatch.setitem(network.DEFAULT_LATENCY, Level.WORLD,
                        network.DEFAULT_LATENCY[Level.WORLD] * 1.1)
    observed = observe(e6.run_partitioning_experiment())
    assert _misses(predicted, observed) == {(k, "lookup") for k in SUBNODES}
