"""E2's back-of-envelope twin: each row predicted in closed form from
the tree's placement, the link parameters and the envelopes' sizes.

E2 resolves one object, registered at ``r0/c0/m0/s0``, from clients at
growing separation.  A lookup climbs from the client's leaf node until
it meets a node that holds a record or a forwarding pointer for the
object (the lowest common ancestor of the client's and the replica's
sites), then follows the pointers down to the replica's leaf, which
answers the client directly.  A walk of h hops is therefore h + 2
datagrams: the client's request, h forwards and the reply.

Each datagram is charged

    latency(L) + (envelope bytes + framing) / bandwidth(L)

at the separation L of the two hosts it travels between, and every
directory node sits on its domain's first site (the tree's placement
of subnode 0), so the separation of each step is known in advance.
The bytes are the envelopes' :func:`~repro.sim.serde.encoded_size`: a
request (``lookup`` going up, ``lookup_down`` coming down, the hop
count and the client's return address carried along) and the reply
with the record's contact address.  E2 runs without jitter and its
lookups are back to back, so every lookup of a row costs the same and
the only slack the twin needs is float rounding.
"""

from repro.core.ids import ContactAddress, ObjectId
from repro.experiments import e2_gls_locality as e2
from repro.sim import network
from repro.sim.network import LinkParameters
from repro.sim.serde import HEADER_OVERHEAD, encoded_size
from repro.sim.topology import Level, Topology

#: Relative, named before the first comparison.  A right prediction
#: agrees to float rounding; a missed datagram costs at least one
#: latency, whole per-cents of any row.
TOLERANCE = 0.001
#: Where E2 registers the object, and its topology.
REPLICA_SITE = "r0/c0/m0/s0"
TOPOLOGY = (2, 2, 2, 2)
#: The contact address E2 registers, as E2 builds it.
CA_WIRE = ContactAddress("gos-home", 7100, "client_server", role="server",
                         impl_id="gdn.package",
                         site_path=REPLICA_SITE).to_wire()


def _wire(envelope) -> int:
    """Bytes a datagram is charged."""
    return encoded_size(envelope) + HEADER_OVERHEAD


def _request(method: str, hops: int, client: str, oid: str) -> int:
    return _wire({"id": 0, "method": method,
                  "args": {"oid": oid, "hops": hops}, "src": client})


def _reply(hops: int, oid: str) -> int:
    return _wire({"id": 0, "ok": True, "value": {
        "cas": [CA_WIRE], "hops": hops, "found": REPLICA_SITE,
        "found_level": int(Level.SITE)}})


def _node_site(domain):
    """Where the tree places a domain's directory node."""
    return next(domain.sites())


def walk(client_site, replica_site):
    """The directory domains a lookup from ``client_site`` visits, in
    order: up to the lowest common ancestor, then down."""
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


def predict(params: LinkParameters) -> dict:
    """{separation: (hops, seconds per lookup)} for every E2 row."""
    topology = Topology.balanced(*TOPOLOGY)
    replica = topology.site(REPLICA_SITE)
    oid = ObjectId(bytes(20)).hex

    def cost(a, b, nbytes):
        level = Topology.separation(a, b)
        return params.latency[level] + nbytes / params.bandwidth[level]

    rows = {}
    for level, site in e2._CLIENT_SITES:
        client_site = topology.site(site)
        client = "client-%s" % level.name.lower()
        domains = walk(client_site, replica)
        hops = len(domains) - 1
        seconds = cost(client_site, _node_site(domains[0]),
                       _request("lookup", 0, client, oid))
        climbing = True
        for hop, (here, there) in enumerate(zip(domains, domains[1:]), 1):
            climbing = climbing and there.level > here.level
            method = "lookup" if climbing else "lookup_down"
            seconds += cost(_node_site(here), _node_site(there),
                            _request(method, hop, client, oid))
        seconds += cost(_node_site(domains[-1]), client_site,
                        _reply(hops, oid))
        rows[level.name] = (hops, seconds)
    return rows


def _misses(predicted: dict, result: dict) -> set:
    """Separations whose hop count differs or whose latency is off by
    more than TOLERANCE."""
    return {row["separation"] for row in result["rows"]
            if row["hops"] != predicted[row["separation"]][0]
            or abs(row["latency"] - predicted[row["separation"]][1])
            > TOLERANCE * predicted[row["separation"]][1]}


def test_a_walk_climbs_to_the_common_ancestor_and_comes_down():
    topology = Topology.balanced(*TOPOLOGY)
    replica = topology.site(REPLICA_SITE)
    lengths = [len(walk(topology.site(site), replica))
               for _level, site in e2._CLIENT_SITES]
    # Same site: the client's leaf alone; then two more domains (one up,
    # one down) per level of separation, one hop each.
    assert lengths == [1, 3, 5, 7, 9]
    assert [hops for hops, _seconds in predict(LinkParameters()).values()] \
        == [0, 2, 4, 6, 8]


def test_e2_matches_its_twin():
    result = e2.run_gls_locality_experiment()
    assert _misses(predict(LinkParameters()), result) == set()


def test_a_planted_world_latency_fails_the_world_row_only(monkeypatch):
    predicted = predict(LinkParameters())
    monkeypatch.setitem(network.DEFAULT_LATENCY, Level.WORLD,
                        network.DEFAULT_LATENCY[Level.WORLD] * 1.1)
    result = e2.run_gls_locality_experiment()
    assert _misses(predicted, result) == {"WORLD"}
