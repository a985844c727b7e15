"""Experiment E5 — §3.1: per-object replication scenarios beat any
single site-wide scenario.

The paper's load-bearing evidence (Pierre et al. 1999): "if we assign a
replication scenario to each Web page that reflects that page's
individual usage and update patterns, we get significant improvements
… less wide-area network traffic was generated and the response time
for the end-user improved."

We publish a synthetic departmental web site (Zipf popularity, mixed
update rates, regional readership — see
:mod:`repro.workloads.webtrace`) into the GDN four times, assigning
scenarios with:

* **NoRepl**   — every document on one origin server, no caching;
* **CacheTTL** — one origin, HTTPD caches with a fixed TTL;
* **ReplAll**  — a replica of everything in every region (+ caches);
* **Adaptive** — per-document scenarios from the ScenarioAdvisor.

The trace is replayed in simulated time (reads through each site's
nearest HTTPD, writes through maintainers near each document's home),
measuring wide-area traffic, read latency, and stale reads (a read
that returns content older than the last completed write).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from ..analysis.metrics import Series
from ..analysis.tables import Table, format_bytes, format_seconds
from ..baselines.uniform import UNIFORM_STRATEGIES
from ..core.ids import ObjectId
from ..gdn.deployment import GdnDeployment, standard_spec
from ..gdn.scenario import ObjectUsage, ScenarioAdvisor
from ..sim.topology import Topology
from ..workloads.packages import synthetic_file
from ..workloads.webtrace import make_web_trace

__all__ = ["run_adaptive_replication_experiment", "format_result",
           "assert_shape",
           "assert_faster_than_no_replication", "assert_fewer_replicas",
           "STRATEGIES"]

STRATEGIES = ["NoRepl", "CacheTTL", "ReplAll", "Adaptive"]


def _topology() -> Topology:
    return Topology.balanced(regions=3, countries=2, cities=1, sites=2)


def _assignment_fn(strategy: str, gdn: GdnDeployment,
                   stream, documents) -> Callable:
    gos_by_region = gdn.gos_by_region()
    all_gos = sorted(gdn.object_servers)
    home_gos = all_gos[0]
    if strategy == "Adaptive":
        advisor = ScenarioAdvisor(
            gos_by_region,
            popularity_threshold=max(10, len(stream)
                                     // (4 * len(documents))),
            ratio_threshold=8.0)
        return lambda _name, usage: advisor.recommend(usage)
    uniform = UNIFORM_STRATEGIES(home_gos, all_gos)
    return uniform[strategy]


def _run_strategy(strategy: str, seed: int, document_count: int,
                  request_count: int) -> dict:
    documents, stream = make_web_trace(_topology(), random.Random(seed),
                                       document_count=document_count,
                                       request_count=request_count)
    gdn = GdnDeployment.from_spec({
        **standard_spec(3, 2, 1, 2), "seed": seed, "secure": False,
        "moderators": {"mod": "r0/c0/m0/s1"}})
    moderator = gdn.moderators["mod"]
    assign = _assignment_fn(strategy, gdn, stream, documents)

    ttl_by_name: Dict[str, Optional[float]] = {}
    oid_by_doc: Dict[int, ObjectId] = {}
    meter = gdn.world.network.meter
    distribution = gdn.world.metrics.window("distribution",
                                            now=gdn.world.now)

    def publish():
        for doc in documents:
            usage = ObjectUsage(stream.reads_by_region(doc.index),
                                writes=stream.writes(doc.index))
            scenario = assign(doc.path, usage)
            ttl_by_name[doc.path] = scenario.cache_ttl
            oid = yield from moderator.create_package(
                doc.path,
                {"index.html": synthetic_file("%s:v0" % doc.path,
                                              doc.size)},
                scenario)
            oid_by_doc[doc.index] = oid

    gdn.run(publish(), host=moderator.host)
    gdn.settle(10.0)
    distribution_bytes = meter.wide_area_delta(
        distribution.close(gdn.world.now))
    for httpd in gdn.httpds:
        httpd.cache_policy = lambda name: ttl_by_name.get(name)

    # -- replay state ----------------------------------------------------
    replay_start = gdn.world.now
    serving = gdn.world.metrics.window("serving", now=replay_start)
    read_latency = Series("read-latency")
    current_version: Dict[int, int] = {doc.index: 0 for doc in documents}
    prefix_to_version: Dict[int, Dict[bytes, int]] = {
        doc.index: {synthetic_file("%s:v0" % doc.path, 32): 0}
        for doc in documents}
    stale_reads = 0
    completed = []
    browsers = {}
    writer_runtimes = {}

    def browser_for(site):
        # Translate the trace's Domain objects by path (foreign
        # topology instance).
        key = site.path
        if key not in browsers:
            browsers[key] = gdn.add_browser(
                "browser-%s" % key.replace("/", "-"), key)
        return browsers[key]

    def writer_for(site):
        key = site.path
        if key not in writer_runtimes:
            host = gdn.world.host("writer-%s" % key.replace("/", "-"),
                                  key)
            writer_runtimes[key] = gdn._runtime(host, gdn_host=True)
        return writer_runtimes[key]

    def do_read(request, doc):
        nonlocal stale_reads
        version_at_start = current_version[doc.index]
        browser = browser_for(request.site)
        response = yield from browser.download(doc.path, "index.html")
        if response.ok:
            read_latency.add(response.elapsed)
            body = response.body
            prefix = bytes(body[:32])
            seen = prefix_to_version[doc.index].get(prefix, -1)
            if seen < version_at_start:
                stale_reads += 1
        completed.append(request)

    def do_write(request, doc):
        version = current_version[doc.index] + 1
        label = "%s:v%d" % (doc.path, version)
        content = synthetic_file(label, doc.size)
        prefix_to_version[doc.index][content[:32]] = version
        runtime = writer_for(request.site)
        lr = yield from runtime.bind(oid_by_doc[doc.index])
        yield from lr.invoke("addFile", {"path": "index.html",
                                         "data": content})
        current_version[doc.index] = version
        completed.append(request)

    def driver():
        for request in stream:
            target_time = replay_start + request.time
            if target_time > gdn.world.now:
                yield gdn.world.sim.timeout(target_time - gdn.world.now)
            doc = documents[request.rank]
            if request.kind == "read":
                gdn.world.sim.process(do_read(request, doc))
            else:
                gdn.world.sim.process(do_write(request, doc))
        # Drain: wait until every request completed.
        while len(completed) < len(stream):
            yield gdn.world.sim.timeout(1.0)

    gdn.run(driver(), limit=1e9)
    reads = sum(1 for request in stream if request.kind == "read")
    serving_bytes = meter.wide_area_delta(serving.close(gdn.world.now))
    return {
        "strategy": strategy,
        "distribution_bytes": distribution_bytes,
        "serving_bytes": serving_bytes,
        "wan_bytes": distribution_bytes + serving_bytes,
        "latency": read_latency,
        "stale_reads": stale_reads,
        "reads": reads,
        "writes": len(stream) - reads,
        "replicas": sum(len(gos.replicas)
                        for gos in gdn.object_servers.values()),
    }


def run_adaptive_replication_experiment(seed: int = 9,
                                        document_count: int = 30,
                                        request_count: int = 700,
                                        strategies: Optional[List[str]]
                                        = None) -> Dict:
    rows = [_run_strategy(strategy, seed, document_count, request_count)
            for strategy in (strategies or STRATEGIES)]
    return {"rows": rows, "documents": document_count,
            "requests": request_count}


def format_result(result: Dict) -> str:
    table = Table(["strategy", "total WAN", "distribute", "serve",
                   "mean read", "p95 read", "stale reads", "replicas"],
                  title="E5 / §3.1 - site-wide vs per-object replication "
                        "scenarios (%d docs, %d requests)"
                        % (result["documents"], result["requests"]))
    for row in result["rows"]:
        table.add_row(row["strategy"], format_bytes(row["wan_bytes"]),
                      format_bytes(row["distribution_bytes"]),
                      format_bytes(row["serving_bytes"]),
                      format_seconds(row["latency"].mean),
                      format_seconds(row["latency"].p(95)),
                      "%d/%d" % (row["stale_reads"], row["reads"]),
                      row["replicas"])
    return table.render()


def _rows(result: Dict) -> Dict[str, Dict]:
    return {row["strategy"]: row for row in result["rows"]}


def assert_faster_than_no_replication(result: Dict) -> None:
    """Per-object assignment improves response time over the
    no-replication Web baseline."""
    rows = _rows(result)
    assert (rows["Adaptive"]["latency"].mean
            < 0.6 * rows["NoRepl"]["latency"].mean)


def assert_fewer_replicas(result: Dict) -> None:
    """Per-object assignment needs fewer replicas than replicating
    everything."""
    rows = _rows(result)
    assert rows["Adaptive"]["replicas"] < rows["ReplAll"]["replicas"]


def assert_shape(result: Dict) -> None:
    """The clauses of Pierre et al.'s conclusion this reproduction
    holds: faster than no replication, with fewer replicas than
    replicating everything.  The third clause, least wide-area traffic,
    is not held (CacheTTL ships less than the threshold advisor); the
    tests check it on its own, as an expected failure."""
    assert_faster_than_no_replication(result)
    assert_fewer_replicas(result)
