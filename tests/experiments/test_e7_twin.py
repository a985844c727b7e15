"""E7's back-of-envelope twin: every cell predicted in closed form from
the link parameters, the deployment's server placement and the
referral chain of each user's first resolution.

Every message E7 times is one envelope crossing one link, charged

    latency(L) + (envelope bytes + framing) / bandwidth(L)

at the separation L of its two hosts, and a call is a request and its
reply.  The envelopes' bytes are :func:`~repro.sim.serde.encoded_size`
of the dicts the code sends: ``{"id", "method", "args", "src"}`` and
``{"id", "ok", "value"}``.

*Batching.*  The tool sends all names at one instant over one open
channel, so they reach the naming authority together, one flight
later.  With no window the authority commits one name per DNS UPDATE,
one UPDATE after the other (a round trip each to the primary, which
shares its site); with a window it waits the window out from the first
name (the burst fills no batch of ``MAX_BATCH``) and commits all of
them in one UPDATE.  The last reply then crosses back.

*Resolution.*  A user's first resolution walks the referral chain:
the root (the only root hint), then the TLD, then the GDN Zone server
nearest the user, which is its own region's (the secondaries sit one
per region).  Its resolver caches both delegations, so every later
name is one query to that server.  Each user asks ``name_count``
names, so the cold pass sends ``users x (chain + name_count - 1)``
queries and each zone server answers its own region's ``name_count``;
the warm pass is all cache hits and takes no simulated time.

E7 runs without jitter and every message waits for the one before it,
so the timed cells agree to float rounding: :data:`TOLERANCE` is
relative and 1e-9.  The p95 cell is read from a
:class:`~repro.analysis.telemetry.Histogram`, which reports a quantile
within its 1 % relative error bound, so it gets :data:`P95_TOLERANCE`,
1 %.  Nothing the twin models is missing: the NOTIFYs and zone
transfers the UPDATEs start run beside the timed calls and never delay
them, and no mechanism of E7's timing was found outside the twin.
"""

from repro.experiments import e7_gns_resolution as e7
from repro.gdn.deployment import GdnDeployment
from repro.gns.authority import NAME_TTL
from repro.gns.dns.tsig import sign_message
from repro.gns.gns import encode_oid_txt, object_name_to_dns
from repro.sim import network
from repro.sim.network import LinkParameters
from repro.sim.serde import HEADER_OVERHEAD, encoded_size
from repro.sim.topology import Level, Topology

#: Relative slack of a timed cell: float rounding only.
TOLERANCE = 1e-9
#: Relative slack of the p95 cell: the histogram's error bound.
P95_TOLERANCE = 0.01
NAME_COUNT = 40
WINDOWS = (0.0, 0.5, 2.0)


def _request(method: str, args: dict, src: str) -> int:
    return encoded_size({"id": 0, "method": method, "args": args,
                         "src": src}) + HEADER_OVERHEAD


def _reply(value) -> int:
    return encoded_size({"id": 0, "ok": True, "value": value}) \
        + HEADER_OVERHEAD


def _record(name: str, rtype: str, ttl: int, data: str) -> dict:
    return {"name": name, "type": rtype, "ttl": ttl, "data": data}


def placement() -> dict:
    """Host name -> site of every host E7's timed calls touch, from a
    deployment built from E7's spec, and the deployment's TSIG key."""
    gdn = GdnDeployment.from_spec({"topology": [3, 2, 1, 2], "seed": 29,
                                   "secure": False})
    servers = [gdn.dns_root, gdn.dns_tld, gdn.dns_primary,
               *gdn.dns_secondaries]
    sites = {server.host.name: server.host.site for server in servers}
    sites[gdn.authority.host.name] = gdn.authority.host.site
    topology = gdn.world.topology
    sites["tool"] = topology.site("r0/c0/m0/s1")
    for region in topology.world.children:
        sites["user-" + region] = topology.site("%s/c1/m0/s1" % region)
    return {"sites": sites, "key": gdn.tsig_key, "zone": gdn.zone,
            "zone_servers": [server.host.name for server
                             in [gdn.dns_primary, *gdn.dns_secondaries]],
            "authority": gdn.authority.host.name,
            "primary": gdn.dns_primary.host.name}


def predict(params: LinkParameters) -> dict:
    """Every E7 cell, by its row and column."""
    where = placement()
    sites, zone = where["sites"], where["zone"]

    def flight(src: str, dst: str, nbytes: int) -> float:
        level = Topology.separation(sites[src], sites[dst])
        return params.latency[level] + nbytes / params.bandwidth[level]

    def call(src, dst, method, args, value) -> float:
        return (flight(src, dst, _request(method, args, src))
                + flight(dst, src, _reply(value)))

    cells = {}
    # -- batching ------------------------------------------------------------
    name = "/apps/pkg000"
    oid = "%040x" % 0
    dns_name = object_name_to_dns(name, zone)
    authority, primary = where["authority"], where["primary"]
    arrive = flight("tool", authority, _request(
        "add_name", {"name": name, "oid": oid}, "tool"))
    answer = flight(authority, "tool", _reply({"dns_name": dns_name,
                                               "serial": 1}))

    def update(names: int) -> float:
        adds = [_record(dns_name, "TXT", NAME_TTL, encode_oid_txt(oid))
                ] * names
        signed = sign_message({"zone": zone, "adds": adds, "deletes": []},
                              where["key"])
        return call(authority, primary, "update", signed,
                    {"rcode": "NOERROR", "serial": 1})

    for window in WINDOWS:
        if window == 0.0:
            updates, elapsed = NAME_COUNT, NAME_COUNT * update(1)
        else:
            updates, elapsed = 1, window + update(NAME_COUNT)
        cells[("batch %.1f" % window, "updates")] = updates
        cells[("batch %.1f" % window, "elapsed")] = arrive + elapsed + answer
    # -- resolution ------------------------------------------------------------
    qname = object_name_to_dns(name, zone)
    query = {"name": qname, "type": "TXT"}
    tld = zone.split(".")[-1]
    servers = where["zone_servers"]
    root_referral = {"rcode": "NOERROR", "answers": [], "referral": [
        _record(tld, "NS", 86400, "dns-tld")], "authoritative": False,
        "zone": ""}
    tld_referral = {"rcode": "NOERROR", "answers": [], "referral": [
        _record(zone, "NS", 3600, server) for server in servers],
        "authoritative": False, "zone": tld}
    txt = {"rcode": "NOERROR", "answers": [
        _record(qname, "TXT", NAME_TTL, encode_oid_txt(oid))],
        "referral": [], "authoritative": True, "zone": zone}
    samples, load, queries = [], {}, 0
    for user in sorted(site for site in sites if site.startswith("user-")):
        region = user[len("user-"):]
        own = next(server for server in servers
                   if sites[server].region() is sites[user].region())
        chain = [("dns-root", root_referral), ("dns-tld", tld_referral),
                 (own, txt)]
        first = sum(call(user, server, "query", query, value)
                    for server, value in chain)
        again = call(user, own, "query", query, txt)
        samples += [first] + [again] * (NAME_COUNT - 1)
        queries += len(chain) + NAME_COUNT - 1
        load[region] = [NAME_COUNT if server == own else 0
                        for server in servers]
    cells[("cold", "mean")] = sum(samples) / len(samples)
    cells[("cold", "p95")] = sorted(samples)[int(0.95 * len(samples)) - 1]
    cells[("cold", "queries")] = queries
    cells[("warm", "mean")] = cells[("warm", "p95")] = 0.0
    cells[("warm", "hits")] = len(samples)
    for region, counts in load.items():
        cells[("load", region)] = counts
    cells[("stable", "after move")] = True
    return cells


def observe(result: dict) -> dict:
    """The same cells, read from an E7 result."""
    cells = {}
    for row in result["batching"]:
        cells[("batch %.1f" % row["window"], "updates")] = row["updates"]
        cells[("batch %.1f" % row["window"], "elapsed")] = row["elapsed"]
    cold, warm = result["cold"], result["warm"]
    cells[("cold", "mean")] = cold.mean
    cells[("cold", "p95")] = cold.p(95)
    cells[("cold", "queries")] = result["queries_sent"]
    cells[("warm", "mean")] = warm.mean
    cells[("warm", "p95")] = warm.p(95)
    cells[("warm", "hits")] = result["cache_hits"]
    for region, counts in result["load"].items():
        cells[("load", region)] = counts
    cells[("stable", "after move")] = result["stable_after_move"]
    return cells


def _misses(predicted: dict, observed: dict) -> set:
    """Cells whose observation is off its prediction: a timed cell by
    more than its tolerance, any other cell at all."""
    missed = set()
    for cell, value in predicted.items():
        seen = observed[cell]
        if isinstance(value, float):
            slack = P95_TOLERANCE if cell[1] == "p95" else TOLERANCE
            if abs(seen - value) > slack * value:
                missed.add(cell)
        elif seen != value:
            missed.add(cell)
    return missed


def test_the_first_resolution_walks_root_tld_and_the_own_region_server():
    cells = predict(LinkParameters())
    # 3 users, each 3 queries for the first name and 1 for each other.
    assert cells[("cold", "queries")] == 3 * (3 + NAME_COUNT - 1) == 126
    assert [cells[("load", region)] for region in ("r0", "r1", "r2")] \
        == [[40, 0, 0], [0, 40, 0], [0, 0, 40]]
    assert [cells[("batch %.1f" % window, "updates")]
            for window in WINDOWS] == [40, 1, 1]


def test_e7_matches_its_twin():
    result = e7.run_gns_resolution_experiment(name_count=NAME_COUNT,
                                              batch_windows=WINDOWS)
    predicted = predict(LinkParameters())
    assert set(observe(result)) == set(predicted)
    assert _misses(predicted, observe(result)) == set()


def test_a_planted_world_latency_fails_exactly_the_dependent_cells(
        monkeypatch):
    # Only first resolutions cross WORLD (a user's root or TLD query
    # outside its region): the cold mean moves, its p95 (a regional
    # query) and every batching cell (CITY and SITE hops) do not.
    predicted = predict(LinkParameters())
    monkeypatch.setitem(network.DEFAULT_LATENCY, Level.WORLD,
                        network.DEFAULT_LATENCY[Level.WORLD] * 1.1)
    result = e7.run_gns_resolution_experiment(name_count=NAME_COUNT,
                                              batch_windows=WINDOWS)
    assert _misses(predicted, observe(result)) == {("cold", "mean")}
