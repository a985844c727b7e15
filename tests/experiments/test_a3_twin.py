"""A3's back-of-envelope twin: both rows predicted in closed form from
the link parameters, the lookup's path through the directory tree and
the envelopes' sizes.

A3 registers one object at ``r0/c0/m0/s0`` and looks it up 20 times,
back to back, from a user at ``r1/c1/m1/s1``: a world apart, so a
lookup climbs the user's four domains to the root and comes down the
replica's four, nine directory nodes and eight hops (the E2 twin's
walk).  Every directory node sits on its domain's first site, so the
separation of each step is known in advance, and every message is
charged

    latency(L) + (envelope bytes + framing) / bandwidth(L)

at the separation L of the two hosts it travels between.

*UDP* (the paper's GLS, §6.3).  The lookup is forwarded: the user's
request, eight forwards carrying the user's return address, and the
answer from the replica's leaf straight back to the user.  Ten
datagrams.

*TCP* (the ablation).  Every hop is a one-shot call the node above
nests inside its own: a connect (a SYN and a SYN-ACK of framing
alone), the request, the reply relayed back hop by hop, and the
caller's FIN of framing alone once the reply is in.  Nine calls of
five messages; the FINs travel after the reply, off the lookup's
path.

A TCP arm that pools its connections changes the connect and FIN
terms, so the cells it moves are named here first.

Tolerance.  A3 runs without jitter and its lookups are back to back,
so every lookup of a row costs the same (mean and p95 agree) and a
right prediction agrees to float rounding: :data:`TOLERANCE` is 1e-4
relative, under a tenth of what a planted +10 % WORLD latency moves
either mean.  Traffic and messages are counts and must agree exactly.
"""

from repro.core.ids import ContactAddress, ObjectId
from repro.experiments import ablations
from repro.sim import network
from repro.sim.network import LinkParameters
from repro.sim.serde import HEADER_OVERHEAD, encoded_size
from repro.sim.topology import Level, Topology

TOLERANCE = 1e-4
LOOKUPS = 20
USER_SITE = "r1/c1/m1/s1"
REPLICA_SITE = "r0/c0/m0/s0"
TOPOLOGY = (2, 2, 2, 2)
#: The contact address A3 registers, as A3 builds it.
CA_WIRE = ContactAddress("gos", 7100, "client_server", role="server",
                         impl_id="gdn.package",
                         site_path=REPLICA_SITE).to_wire()


def _wire(envelope) -> int:
    """Bytes a message is charged."""
    return encoded_size(envelope) + HEADER_OVERHEAD


def _request(method: str, hops: int, src: str, oid: str) -> int:
    return _wire({"id": 0, "method": method,
                  "args": {"oid": oid, "hops": hops}, "src": src})


def _reply(hops: int) -> int:
    return _wire({"id": 0, "ok": True, "value": {
        "cas": [CA_WIRE], "hops": hops, "found": REPLICA_SITE,
        "found_level": int(Level.SITE)}})


def walk(topology: Topology) -> list:
    """The directory domains a lookup visits, in order: up from the
    user's site to the lowest common ancestor, then down."""
    user, replica = topology.site(USER_SITE), topology.site(REPLICA_SITE)
    lca = Topology.lca(user, replica)
    up, domain = [], user
    while domain is not lca:
        up.append(domain)
        domain = domain.parent
    down, domain = [], replica
    while domain is not lca:
        down.append(domain)
        domain = domain.parent
    return up + [lca] + list(reversed(down))


def predict(params: LinkParameters) -> dict:
    """Every A3 cell, by transport and column."""
    topology = Topology.balanced(*TOPOLOGY)
    domains = walk(topology)
    hops = len(domains) - 1
    oid = ObjectId(bytes(20)).hex
    user = topology.site(USER_SITE)
    sites = [next(domain.sites()) for domain in domains]
    # Who sends each request: the user, then each node, by the name
    # the tree gives its host.
    names = ["user"] + ["glsnode-%s-0" % (domain.path.replace("/", ".")
                                          or "root")
                        for domain in domains[:-1]]
    methods = ["lookup" if there.level > here.level or index == 0
               else "lookup_down"
               for index, (here, there) in enumerate(
                   zip([user] + domains, domains))]

    def flight(a, b, nbytes: int) -> float:
        level = Topology.separation(a, b)
        return params.latency[level] + nbytes / params.bandwidth[level]

    # UDP: the request and its forwards, each with the user's address.
    ends = [user] + sites
    udp_sizes = [_request(methods[index], index, "user", oid)
                 for index in range(hops + 1)] + [_reply(hops)]
    udp = sum(flight(a, b, size) for a, b, size in
              zip(ends, ends[1:], udp_sizes)) \
        + flight(sites[-1], user, udp_sizes[-1])
    # TCP: nine nested one-shot calls, each from the host before.
    tcp, tcp_sizes = 0.0, []
    for index, (a, b) in enumerate(zip(ends, ends[1:])):
        request = _request(methods[index], index, names[index], oid)
        reply = _reply(hops)
        tcp += (flight(a, b, HEADER_OVERHEAD) + flight(b, a, HEADER_OVERHEAD)
                + flight(a, b, request) + flight(b, a, reply))
        tcp_sizes += [HEADER_OVERHEAD] * 3 + [request, reply]
    return {("UDP", "mean"): udp, ("UDP", "p95"): udp,
            ("UDP", "bytes"): LOOKUPS * sum(udp_sizes),
            ("UDP", "messages"): LOOKUPS * len(udp_sizes),
            ("TCP", "mean"): tcp, ("TCP", "p95"): tcp,
            ("TCP", "bytes"): LOOKUPS * sum(tcp_sizes),
            ("TCP", "messages"): LOOKUPS * len(tcp_sizes)}


def observe(result: dict) -> dict:
    cells = {}
    for row in result["rows"]:
        transport = row["transport"]
        cells[(transport, "mean")] = row["latency"].mean
        cells[(transport, "p95")] = row["latency"].p(95)
        cells[(transport, "bytes")] = row["bytes"]
        cells[(transport, "messages")] = row["messages"]
    return cells


def _misses(predicted: dict, observed: dict) -> set:
    """Cells off their prediction: a latency by more than TOLERANCE,
    a count at all."""
    missed = set()
    for cell, value in predicted.items():
        seen = observed[cell]
        if isinstance(value, float):
            if abs(seen - value) > TOLERANCE * value:
                missed.add(cell)
        elif seen != value:
            missed.add(cell)
    return missed


def test_a_lookup_a_world_apart_walks_nine_nodes():
    domains = walk(Topology.balanced(*TOPOLOGY))
    assert [domain.level for domain in domains] == [
        Level.SITE, Level.CITY, Level.COUNTRY, Level.REGION, Level.WORLD,
        Level.REGION, Level.COUNTRY, Level.CITY, Level.SITE]
    predicted = predict(LinkParameters())
    assert (predicted[("UDP", "messages")], predicted[("TCP", "messages")]) \
        == (10 * LOOKUPS, 45 * LOOKUPS)


def test_a3_matches_its_twin():
    predicted = predict(LinkParameters())
    observed = observe(ablations.run_transport_ablation(lookups=LOOKUPS))
    assert set(observed) == set(predicted)
    assert _misses(predicted, observed) == set()


def test_a_planted_world_latency_fails_exactly_the_dependent_cells(
        monkeypatch):
    # Both walks cross WORLD (root to region, each way): every latency
    # cell moves, and no count does.
    predicted = predict(LinkParameters())
    monkeypatch.setitem(network.DEFAULT_LATENCY, Level.WORLD,
                        network.DEFAULT_LATENCY[Level.WORLD] * 1.1)
    observed = observe(ablations.run_transport_ablation(lookups=LOOKUPS))
    assert _misses(predicted, observed) == {
        ("UDP", "mean"), ("UDP", "p95"), ("TCP", "mean"), ("TCP", "p95")}
