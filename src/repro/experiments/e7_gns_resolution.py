"""Experiment E7 — §5: the DNS-based Globe Name Service.

Measures the properties the paper claims make DNS a workable GNS
prototype:

* resolver caching makes repeated name resolutions nearly free
  ("DNS … cache entries at client-side resolvers");
* multiple authoritative servers spread the query load over regions:
  each resolver asks its own region's server;
* the naming authority batches zone updates ("The number of updates to
  our zone can be kept low by batching them");
* two-level naming stability: moving replicas touches only the GLS,
  never the name mapping, so caches stay valid.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.tables import Table, format_seconds
from ..gdn.deployment import GdnDeployment
from ..sim import rpc
from ..sim.topology import Topology
from ..workloads.loadgen import BurstSchedule, LoadStats
from ..workloads.scenario import ClosedLoopScenario, OpenLoopScenario

__all__ = ["run_gns_resolution_experiment", "format_result",
           "assert_shape"]


def run_gns_resolution_experiment(seed: int = 29, name_count: int = 40,
                                  batch_windows=(0.0, 0.5, 2.0)) -> Dict:
    topology = Topology.balanced(regions=3, countries=2, cities=1, sites=2)
    result: Dict = {"name_count": name_count}

    # -- batching: one authority, varying windows -----------------------
    batching_rows = []
    for window in batch_windows:
        gdn = GdnDeployment(topology=topology, seed=seed, secure=False,
                            batch_window=window)
        gdn.initial_sync()
        tool_host = gdn.world.host("tool", "r0/c0/m0/s1")
        updates_before = gdn.dns_primary.updates_applied

        channel = gdn.run(rpc.RpcChannel.open(
            tool_host, gdn.authority.host, gdn.authority.port),
            host=tool_host)

        def add_name(arrival, channel=channel):
            yield from channel.call(
                "add_name", {"name": "/apps/pkg%03d" % arrival.index,
                             "oid": "%040x" % arrival.index})

        # The tool pushes all registrations concurrently: an open-loop
        # burst over one channel.
        scenario = OpenLoopScenario(BurstSchedule(), name_count,
                                    label="gns-burst")
        stats = LoadStats()
        start = gdn.world.now
        gdn.run(scenario.drive(gdn.world.sim, add_name,
                               rng=gdn.world.rng_for("e7-burst"),
                               stats=stats))
        assert stats.ok == name_count
        channel.close()
        batching_rows.append({
            "window": window,
            "updates": gdn.dns_primary.updates_applied - updates_before,
            "elapsed": gdn.world.now - start,
        })
    result["batching"] = batching_rows

    # -- resolution latency: cold vs warm caches -----------------------------
    gdn = GdnDeployment(topology=topology, seed=seed, secure=False,
                        batch_window=0.1)
    gdn.initial_sync()
    tool_host = gdn.world.host("tool", "r0/c0/m0/s1")

    def add_name(arrival):
        yield from rpc.call(tool_host, gdn.authority.host,
                            gdn.authority.port, "add_name",
                            {"name": "/apps/pkg%03d" % arrival.index,
                             "oid": "%040x" % arrival.index})

    one_by_one = ClosedLoopScenario(clients=1, think_time=0.0,
                                    requests_per_client=name_count,
                                    label="gns-register")
    gdn.run(one_by_one.drive(gdn.world.sim, add_name,
                             rng=gdn.world.rng_for("e7-register")))
    gdn.settle(5.0)

    # One user per region, each resolving every name twice: first pass
    # cold, second pass entirely out of its resolver cache.  One shared
    # stats bundle on the deployment registry; each pass is a phase
    # window and its latency histogram is the window's delta.
    users = {region.name: gdn._name_service(gdn.world.host(
                 "user-" + region.name, "%s/c1/m0/s1" % region.name))
             for region in topology.world.children.values()}
    servers = [gdn.dns_primary, *gdn.dns_secondaries]
    stats = LoadStats(registry=gdn.metrics, prefix="e7")

    def resolve_pass(label):
        """Run the pass region by region; return its latency window and
        the GDN Zone queries each server answered, by asking region."""
        window = gdn.metrics.phase(label, now=gdn.world.now)
        load = {}
        for region, gns in users.items():
            before = [server.queries_served for server in servers]
            scenario = ClosedLoopScenario(clients=1, think_time=0.0,
                                          requests_per_client=name_count,
                                          label="gns-%s-%s" % (label, region))
            gdn.run(scenario.drive(
                gdn.world.sim,
                lambda arrival, gns=gns: gns.resolve(
                    "/apps/pkg%03d" % arrival.index),
                rng=gdn.world.rng_for("e7-%s-%s" % (label, region)),
                stats=stats))
            load[region] = [server.queries_served - count
                            for server, count in zip(servers, before)]
        window.close(now=gdn.world.now)
        point = stats.phase_summary(window)
        assert point["ok"] == name_count * len(users)
        return window.delta(stats.latency.name), load

    result["users"] = len(users)
    result["cold"], result["load"] = resolve_pass("cold")
    result["warm"] = resolve_pass("warm")[0]
    gdn.metrics.end_phase(now=gdn.world.now)
    resolvers = [gns.resolver for gns in users.values()]
    result["queries_sent"] = sum(r.queries_sent for r in resolvers)
    result["cache_hits"] = sum(r.cache_hits for r in resolvers)
    # Which server each resolver asks (the §5 scaling argument: load
    # spreads over the zone's servers by the asker's region).
    result["servers"] = [server.host.name for server in servers]
    result["server_regions"] = [server.host.site.region().name
                                for server in servers]

    # -- two-level naming stability ------------------------------------------
    # Resolving again after "replica movement" (a pure GLS-side event)
    # is a cache hit: the name layer never saw it.
    gns = users["r2"]
    hits_before = gns.resolver.cache_hits
    after_move = ClosedLoopScenario(clients=1, think_time=0.0,
                                    requests_per_client=1,
                                    label="gns-after-move")
    gdn.run(after_move.drive(gdn.world.sim,
                             lambda arrival: gns.resolve("/apps/pkg000"),
                             rng=gdn.world.rng_for("e7-move")))
    result["stable_after_move"] = gns.resolver.cache_hits == hits_before + 1
    return result


def format_result(result: Dict) -> str:
    parts = []
    table = Table(["authority batch window", "DNS UPDATE messages",
                   "time to add all names"],
                  title="E7 / §5 - batching zone updates "
                        "(%d names added)" % result["name_count"])
    for row in result["batching"]:
        table.add_row("%.1f s" % row["window"], row["updates"],
                      format_seconds(row["elapsed"]))
    parts.append(table.render())

    table = Table(["resolver state", "mean resolve", "p95 resolve",
                   "DNS queries"],
                  title="name resolution, one user in each of %d regions "
                        "(%d names each)" % (result["users"],
                                             result["name_count"]))
    cold, warm = result["cold"], result["warm"]
    total_queries = result["queries_sent"]
    table.add_row("cold cache", format_seconds(cold.mean),
                  format_seconds(cold.p(95)), total_queries)
    table.add_row("warm cache", format_seconds(warm.mean),
                  format_seconds(warm.p(95)),
                  "0 (all %d hits)" % result["cache_hits"])
    parts.append(table.render())
    table = Table(["asking region"] + result["servers"],
                  title="authoritative load: GDN Zone queries answered "
                        "in the cold pass")
    for region, counts in result["load"].items():
        table.add_row(region, *counts)
    parts.append(table.render())
    parts.append("name mapping survives replica movement (cache hit): %s"
                 % result["stable_after_move"])
    return "\n\n".join(parts)


def assert_shape(result: Dict) -> None:
    # Batching: with no window every name is its own UPDATE; a window of
    # half a second or more carries the whole burst in one.
    for row in result["batching"]:
        if row["window"] == 0.0:
            assert row["updates"] == result["name_count"], row
        elif row["window"] >= 0.5:
            assert row["updates"] == 1, row
    # Warm-cache resolution is much faster than cold.
    assert result["warm"].mean < result["cold"].mean / 5
    # Each region's queries are answered by that region's own server.
    for region, counts in result["load"].items():
        for server_region, count in zip(result["server_regions"], counts):
            assert (count > 0) == (server_region == region), \
                (region, result["servers"], counts)
    assert result["stable_after_move"]
