"""Ablations A1–A3: design choices the paper discusses but does not
settle.

* **A1** — master/slave eager push vs TTL-cache lazy pull (§3.3 names
  both as per-object choices): consistency against update traffic as
  the write rate grows.
* **A2** — contact addresses at leaf vs intermediate GLS nodes for
  mobile objects (§3.5: "storing the addresses at intermediate nodes
  may, in the case of highly mobile objects, lead to considerably more
  efficient look-up operations").
* **A3** — the GLS over UDP vs TCP (§6.3: "We have yet to determine if
  it is acceptable to temporarily replace it with TCP").
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.metrics import Series
from ..analysis.tables import Table, format_bytes, format_seconds
from ..core.ids import ContactAddress
from ..gls.service import GlsClient
from ..gls.tree import GlsTree
from ..sim.topology import Level, Topology
from ..sim.world import World
from ..workloads.packages import synthetic_file

__all__ = [
    "run_consistency_ablation", "format_consistency",
    "assert_consistency_shape",
    "run_mobility_ablation", "format_mobility", "assert_mobility_shape",
    "run_transport_ablation", "format_transport", "assert_transport_shape",
]


# ---------------------------------------------------------------------------
# A1: push vs pull consistency
# ---------------------------------------------------------------------------


def _consistency_run(mode: str, write_count: int, reads_per_write: int,
                     seed: int) -> dict:
    from ..gdn.deployment import GdnDeployment
    from ..gdn.scenario import ReplicationScenario

    topology = Topology.balanced(regions=2, countries=1, cities=1, sites=2)
    gdn = GdnDeployment(topology=topology, seed=seed, secure=False)
    gdn.standard_fleet(gos_per_region=1)
    gdn.initial_sync()
    moderator = gdn.add_moderator("mod", "r0/c0/m0/s1")

    if mode == "push":
        scenario = ReplicationScenario.master_slave(
            "gos-r0-0", ["gos-r1-0"], cache_ttl=None)
    else:  # pull: single copy + TTL caches at the HTTPDs
        scenario = ReplicationScenario.single_server("gos-r0-0",
                                                     cache_ttl=30.0)

    def publish():
        oid = yield from moderator.create_package(
            "/apps/a1pkg",
            {"doc": synthetic_file("a1:v0", 20_000)}, scenario)
        return oid

    oid = gdn.run(publish(), host=moderator.host)
    gdn.settle(2.0)
    for httpd in gdn.httpds:
        httpd.cache_policy = lambda _name: scenario.cache_ttl

    browser = gdn.add_browser("user", "r1/c0/m0/s1")
    traffic = gdn.world.metrics.window("a1-workload", now=gdn.world.now)
    stale = 0
    reads = 0
    latency = Series("read")
    prefixes = {synthetic_file("a1:v0", 32): 0}
    version = 0

    def workload():
        nonlocal stale, reads, version
        for write_index in range(1, write_count + 1):
            content = synthetic_file("a1:v%d" % write_index, 20_000)
            prefixes[content[:32]] = write_index
            yield from moderator.update_package(
                "/apps/a1pkg", add_files={"doc": content})
            version = write_index
            for _ in range(reads_per_write):
                yield gdn.world.sim.timeout(5.0)
                response = yield from browser.download("/apps/a1pkg",
                                                       "doc")
                reads += 1
                latency.add(response.elapsed)
                if prefixes.get(bytes(response.body[:32]), -1) < version:
                    stale += 1

    gdn.run(workload(), host=moderator.host)
    return {"mode": ("eager push (master/slave)" if mode == "push"
                     else "lazy pull (TTL cache)"),
            "wan_bytes": gdn.world.network.meter.wide_area_delta(
                traffic.close(gdn.world.now)),
            "stale": stale, "reads": reads, "latency": latency}


def run_consistency_ablation(seed: int = 41, write_count: int = 10,
                             reads_per_write: int = 5) -> Dict:
    rows = [_consistency_run("push", write_count, reads_per_write, seed),
            _consistency_run("pull", write_count, reads_per_write, seed)]
    return {"rows": rows, "writes": write_count,
            "reads_per_write": reads_per_write}


def format_consistency(result: Dict) -> str:
    table = Table(["propagation", "WAN traffic", "stale reads",
                   "mean read latency"],
                  title="A1 - push vs pull consistency "
                        "(%d writes x %d reads each)"
                        % (result["writes"], result["reads_per_write"]))
    for row in result["rows"]:
        table.add_row(row["mode"], format_bytes(row["wan_bytes"]),
                      "%d/%d" % (row["stale"], row["reads"]),
                      format_seconds(row["latency"].mean))
    return table.render()


def assert_consistency_shape(result: Dict) -> None:
    """Push keeps replicas perfectly fresh; pull trades staleness for
    demand-driven traffic."""
    push, pull = result["rows"]
    assert push["stale"] == 0
    assert pull["stale"] > 0


# ---------------------------------------------------------------------------
# A2: mobile objects and the storage level of contact addresses
# ---------------------------------------------------------------------------


def _mobility_run(store_level: Level, moves: int, lookups_per_move: int,
                  seed: int) -> dict:
    world = World(topology=Topology.balanced(2, 2, 2, 2), seed=seed)
    tree = GlsTree(world)
    # The object moves between sites of country r0/c0.
    sites = [site for site in world.topology.sites
             if site.path.startswith("r0/c0")]
    hosts = [world.host("gos-%d" % index, site)
             for index, site in enumerate(sites)]
    clients = [GlsClient(world, host, tree) for host in hosts]
    # A user in the same country looks the object up between moves.
    user_host = world.host("user", "r0/c0/m1/s1")
    user = GlsClient(world, user_host, tree)
    meter = world.network.meter
    bytes_before = meter.total_bytes
    lookup_latency = Series("lookup")
    update_latency = Series("update")
    hops = Series("hops")

    def wire_for(index):
        host = hosts[index % len(hosts)]
        return ContactAddress(host.name, 7100, "client_server",
                              role="server", impl_id="gdn.package",
                              site_path=host.site.path).to_wire()

    def workload():
        oid_hex = yield from clients[0].register(
            None, wire_for(0), store_level=int(store_level))
        for move in range(1, moves + 1):
            old_client = clients[(move - 1) % len(clients)]
            new_client = clients[move % len(clients)]
            start = world.now
            yield from old_client.unregister(oid_hex, wire_for(move - 1))
            yield from new_client.register(oid_hex, wire_for(move),
                                           store_level=int(store_level))
            update_latency.add(world.now - start)
            for _ in range(lookups_per_move):
                start = world.now
                reply = yield from user.lookup_detailed(oid_hex)
                assert reply["cas"], "mobile object must stay resolvable"
                lookup_latency.add(world.now - start)
                hops.add(reply["hops"])

    world.run_until(user_host.spawn(workload()), limit=1e9)
    return {"store_level": store_level.name,
            "lookup": lookup_latency, "hops": hops,
            "update": update_latency,
            "wan_bytes": meter.total_bytes - bytes_before}


def run_mobility_ablation(seed: int = 43, moves: int = 8,
                          lookups_per_move: int = 4) -> Dict:
    rows = [_mobility_run(Level.SITE, moves, lookups_per_move, seed),
            _mobility_run(Level.COUNTRY, moves, lookups_per_move, seed)]
    return {"rows": rows, "moves": moves,
            "lookups_per_move": lookups_per_move}


def format_mobility(result: Dict) -> str:
    table = Table(["contact address stored at", "mean lookup",
                   "mean hops", "mean move cost", "GLS traffic"],
                  title="A2 / §3.5 - mobile object, address at leaf vs "
                        "intermediate node (%d moves)" % result["moves"])
    for row in result["rows"]:
        table.add_row(row["store_level"],
                      format_seconds(row["lookup"].mean),
                      "%.1f" % row["hops"].mean,
                      format_seconds(row["update"].mean),
                      format_bytes(row["wan_bytes"]))
    return table.render()


def assert_mobility_shape(result: Dict) -> None:
    """§3.5: an address stored at the country node makes each move
    cheaper and shortens the pointer chase."""
    leaf, country = result["rows"]
    assert country["update"].mean < leaf["update"].mean
    assert country["hops"].mean <= leaf["hops"].mean


# ---------------------------------------------------------------------------
# A3: GLS over UDP vs TCP
# ---------------------------------------------------------------------------


def _transport_run(transport: str, lookups: int, seed: int) -> dict:
    world = World(topology=Topology.balanced(2, 2, 2, 2), seed=seed)
    tree = GlsTree(world, transport=transport)
    gos_host = world.host("gos", "r0/c0/m0/s0")
    registrar = GlsClient(world, gos_host, tree)
    wire = ContactAddress("gos", 7100, "client_server", role="server",
                          impl_id="gdn.package",
                          site_path="r0/c0/m0/s0").to_wire()

    def register():
        oid_hex = yield from registrar.register(None, wire)
        return oid_hex

    oid_hex = world.run_until(gos_host.spawn(register()), limit=1e7)
    user_host = world.host("user", "r1/c1/m1/s1")
    user = GlsClient(world, user_host, tree)
    meter = world.network.meter
    bytes_before, messages_before = (meter.total_bytes,
                                     meter.total_messages)
    latency = Series("lookup")

    def resolve():
        for _ in range(lookups):
            start = world.now
            yield from user.lookup_detailed(oid_hex)
            latency.add(world.now - start)

    world.run_until(user_host.spawn(resolve()), limit=1e9)
    return {"transport": transport.upper(), "latency": latency,
            "bytes": meter.total_bytes - bytes_before,
            "messages": meter.total_messages - messages_before}


def run_transport_ablation(seed: int = 47, lookups: int = 20) -> Dict:
    rows = [_transport_run("udp", lookups, seed),
            _transport_run("tcp", lookups, seed)]
    return {"rows": rows, "lookups": lookups}


def format_transport(result: Dict) -> str:
    table = Table(["GLS transport", "mean worldwide lookup",
                   "p95", "traffic", "messages"],
                  title="A3 / §6.3 - GLS over UDP vs TCP "
                        "(%d lookups, client and replica a world apart)"
                        % result["lookups"])
    for row in result["rows"]:
        table.add_row(row["transport"],
                      format_seconds(row["latency"].mean),
                      format_seconds(row["latency"].p(95)),
                      format_bytes(row["bytes"]), row["messages"])
    return table.render()


def assert_transport_shape(result: Dict) -> None:
    """The paper chose UDP "for efficiency reasons": TCP pays a
    handshake per directory-node hop."""
    udp, tcp = result["rows"]
    assert tcp["latency"].mean > 1.5 * udp["latency"].mean
    assert tcp["bytes"] > udp["bytes"]
