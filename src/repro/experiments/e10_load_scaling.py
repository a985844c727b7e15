"""Experiment E10 (extension) — §3.1's first reason for replication.

"First, there are a potentially very large number of people interested
in a particular software package and multiple machines are needed to
handle such a load."

Servers here are finite: each HTTPD has a worker pool and a fixed CPU
service time per request.  A closed-loop *population of browsers* (the
paper's "very large number of people") hammers one popular package at
increasing offered load, against

* a single access point backed by the only replica, and
* an access point + replica in every region.

The offered load stays the x-axis: a point's population of
``offered × THINK_TIME`` browsers thinks ``THINK_TIME`` seconds on
average, so ``clients / think_time`` equals the offered rate.  Every
browser is its own client generator (:class:`~repro.workloads.scenario
.ClosedLoopScenario`).

Reported per offered load: achieved throughput and mean/p95 response
time.  Expected shape: the single server saturates at roughly
``workers / service_time`` requests per second — queueing delay then
grows with the waiting population — while the replicated deployment
splits the load across machines and keeps latency flat well past the
single-server knee.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.tables import Table, format_seconds
from ..gdn.deployment import GdnDeployment
from ..gdn.scenario import ReplicationScenario
from ..workloads.loadgen import LoadStats
from ..workloads.packages import synthetic_file
from ..workloads.scenario import ClosedLoopScenario

__all__ = ["run_load_scaling_experiment", "format_result", "assert_shape"]

PACKAGE = "/apps/devel/HotRelease"
_FILE = "release.tar.gz"

#: Worker pool and per-request CPU of every HTTPD in this experiment.
WORKERS = 4
SERVICE_TIME = 0.040  # seconds -> one HTTPD saturates at ~100 req/s

#: Mean browser think time.
THINK_TIME = 10.0


def _run_deployment(replicate: bool, offered_load: float, seed: int,
                    request_count: int) -> dict:
    gdn = GdnDeployment.from_spec({
        "topology": [3, 1, 1, 2], "seed": seed, "secure": False,
        "gos": {"gos-%d" % index: "r%d/c0/m0/s0" % index
                for index in range(3)},
        "httpds": {"httpd-%d" % index: {"colocate_with": "gos-%d" % index,
                                        "concurrency": WORKERS,
                                        "service_time": SERVICE_TIME}
                   for index in range(3)},
        "moderators": {"mod": "r0/c0/m0/s1"}})
    moderator = gdn.moderators["mod"]
    slaves = ["gos-1", "gos-2"] if replicate else []
    gdn.run(moderator.create_package(
        PACKAGE, {_FILE: synthetic_file("hot", 30_000)},
        ReplicationScenario.master_slave("gos-0", slaves, cache_ttl=600.0)),
        host=moderator.host)
    gdn.settle(5.0)

    # Browsers spread over all regions; the population is sized so the
    # closed loop offers exactly the target rate (clients / think =
    # offered), and the drive runs long enough to issue about
    # ``request_count`` requests.  One long-lived browser per site is
    # shared by all its requests.
    browser_for = gdn.browser_pool("load")

    def one_request(arrival):
        response = yield from browser_for(arrival.site).download(
            PACKAGE, _FILE)
        return response.ok

    clients = max(1, round(offered_load * THINK_TIME))
    scenario = ClosedLoopScenario(clients, clients / offered_load,
                                  duration=request_count / offered_load,
                                  sites=gdn.world.topology.sites,
                                  label="e10-load")
    # On the world registry: the latency histogram (O(1) streaming, no
    # sample list at 10^5-request scale) lives beside the HTTPD/GOS
    # counters this deployment bound.
    stats = LoadStats(registry=gdn.world.metrics, prefix="e10")
    elapsed = gdn.run(scenario.drive(gdn.world.sim, one_request,
                                     rng=gdn.world.rng_for("e10-load"),
                                     stats=stats), limit=1e9)
    return {
        "replicate": replicate,
        "offered": offered_load,
        "browsers": clients,
        "achieved": stats.throughput(elapsed),
        "latency": stats.latency,
        "ok": stats.ok,
    }


def run_load_scaling_experiment(seed: int = 61,
                                loads=(40.0, 90.0, 160.0),
                                request_count: int = 400) -> Dict:
    rows: List[dict] = []
    for offered in loads:
        rows.append(_run_deployment(False, offered, seed, request_count))
        rows.append(_run_deployment(True, offered, seed, request_count))
    return {"rows": rows, "requests": request_count,
            "capacity_one": WORKERS / SERVICE_TIME}


def format_result(result: Dict) -> str:
    table = Table(["deployment", "offered req/s", "browsers",
                   "achieved req/s", "mean response", "p50 response",
                   "p95 response"],
                  title="E10 (extension) / §3.1 - one replica vs one per "
                        "region under a browser population "
                        "(single-HTTPD capacity ~%.0f req/s)"
                        % result["capacity_one"])
    for row in result["rows"]:
        table.add_row("replicated" if row["replicate"] else "single",
                      "%.0f" % row["offered"],
                      "%d" % row.get("browsers", 0),
                      "%.1f" % row["achieved"],
                      format_seconds(row["latency"].mean),
                      format_seconds(row["latency"].p(50)),
                      format_seconds(row["latency"].p(95)))
    return table.render()


def assert_shape(result: Dict) -> None:
    single = [row for row in result["rows"] if not row["replicate"]]
    replicated = [row for row in result["rows"] if row["replicate"]]
    # Under the highest offered load, the single deployment is
    # saturated: replication serves the same load much faster.
    worst_single = single[-1]
    worst_replicated = replicated[-1]
    assert worst_single["offered"] > result["capacity_one"]
    assert worst_replicated["latency"].mean \
        < worst_single["latency"].mean / 2
    assert worst_replicated["achieved"] > worst_single["achieved"]
    # Below one server's capacity, both deployments serve what the
    # browsers offer.
    for row in result["rows"]:
        if row["offered"] <= result["capacity_one"]:
            assert abs(row["achieved"] - row["offered"]) \
                <= 0.1 * row["offered"], row
    # At low load both behave comparably (no replication penalty).
    assert replicated[0]["latency"].mean < single[0]["latency"].mean * 1.5
