#!/usr/bin/env python3
"""Soak: sustained mixed load, injected failures, checked invariants.

The paper lists host and network failures among the nonfunctional
aspects the middleware must absorb (§1, §6.1).  This example runs the
whole GDN under a long mixed workload while things go wrong on
schedule, then audits the wreckage:

* a **hybrid workload** through the scenario engine — an open-loop
  Poisson stream of downloads/updates over a Zipf request mix, plus a
  closed-loop population of think-time clients browsing from every
  region (reads via nearest HTTPD, writes via the moderator, an
  occasional attribute search);
* **fault injection** mid-run — one object-server host crashes and is
  recovered from stable storage (§4 reboot reconstruction), and one
  country is partitioned off the internet for a while;
* **invariants** checked after the load drains and the system
  settles: every request accounted, a healthy success fraction,
  master/slave replicas converged, the crashed server back up and
  serving, and traffic metering consistent;
* **per-phase telemetry**: the run is sliced into pre-fault /
  during-fault / recovered windows on the world's MetricsRegistry, so
  the closing table shows throughput, p50/p95 latency and error
  counts for each phase — the "how bad was it while things were
  broken" question the totals hide.

Run:  python examples/soak.py
(set GDN_EXAMPLE_SCALE=small for a reduced CI-sized run)
"""

import os
import random
import sys

from repro.gdn.deployment import GdnDeployment, standard_spec
from repro.gdn.scenario import ObjectUsage, ScenarioAdvisor
from repro.workloads.loadgen import LoadStats, PoissonSchedule
from repro.workloads.packages import generate_corpus
from repro.workloads.population import ClientPopulation
from repro.workloads.scenario import (ClosedLoopScenario, HybridScenario,
                                      OpenLoopScenario, RequestMix, Soak)

SMALL = os.environ.get("GDN_EXAMPLE_SCALE", "").lower() in ("small", "ci")
PACKAGES = 6 if SMALL else 12
OPEN_REQUESTS = 100 if SMALL else 600
OPEN_RATE = 8.0 if SMALL else 20.0
CLIENTS = 6 if SMALL else 18
REQUESTS_PER_CLIENT = 6 if SMALL else 20
THINK_TIME = 0.8


def main():
    print("== GDN soak: load + failures + invariants ==\n")
    gdn = GdnDeployment.from_spec({
        **standard_spec(3, 2, 1, 2), "seed": 1777, "secure": False,
        "moderators": {"mod": "r0/c0/m0/s1"}})
    moderator = gdn.moderators["mod"]
    topology = gdn.world.topology

    # -- corpus with advisor-assigned per-object scenarios ---------------
    rng = random.Random(1777)
    corpus = generate_corpus(PACKAGES, rng, mean_file_size=20_000)
    population = ClientPopulation(topology, len(corpus),
                                  random.Random(1778), alpha=1.0)
    stream = population.generate(150)
    advisor = ScenarioAdvisor(gdn.gos_by_region(), popularity_threshold=8)

    def publish():
        for index, spec in enumerate(corpus):
            usage = ObjectUsage(stream.reads_by_region(index), writes=1)
            yield from moderator.create_package(
                spec.name, spec.materialize(), advisor.recommend(usage))

    gdn.run(publish(), host=moderator.host)
    gdn.settle(10.0)
    print("published %d packages across %d object servers\n"
          % (len(corpus), len(gdn.object_servers)))

    # -- the workload: open-loop stream + closed-loop population ---------
    mix = RequestMix(len(corpus), alpha=1.0, write_fraction=0.05)
    scenario = HybridScenario([
        OpenLoopScenario(PoissonSchedule(OPEN_RATE), OPEN_REQUESTS,
                         sites=topology.sites, mix=mix, label="stream"),
        ClosedLoopScenario(CLIENTS, THINK_TIME, REQUESTS_PER_CLIENT,
                           sites=topology.sites, mix=mix,
                           label="population"),
    ])
    browser_for = gdn.browser_pool("soak")

    def one_request(arrival):
        spec = corpus[arrival.rank]
        if arrival.kind == "write":
            yield from moderator.update_package(
                spec.name, attributes={"touched": "req%d" % arrival.index})
            return True
        browser = browser_for(arrival.site)
        if arrival.index % 25 == 7:
            response = yield from browser.get(
                "/gdn-search?category=%s" % spec.name.split("/")[2])
        else:
            response = yield from browser.download(spec.name,
                                                   spec.largest_file)
        return response.ok

    # -- fault schedule (absolute times, relative to now) ----------------
    # Stats live on the world registry so the soak's phase windows see
    # load, network and server instruments together.
    stats = LoadStats(registry=gdn.world.metrics)
    soak = Soak(gdn.world, scenario, one_request,
                rng=gdn.world.rng_for("soak"), stats=stats, settle=15.0)
    base = gdn.world.now
    victim = gdn.object_servers["gos-r1-0"].host
    soak.crash_restart(victim, crash_at=base + 3.0, restart_at=base + 5.5)
    cut_off = topology.domain("r2/c1")  # a client-only country
    soak.partition(cut_off, start=base + 7.0, duration=3.0)

    # -- invariants -------------------------------------------------------
    expected = scenario.count

    soak.invariant("every request accounted",
                   lambda: stats.finished == expected)
    soak.invariant("success fraction >= 0.85",
                   lambda: stats.ok >= 0.85 * expected)

    def replicas_converged():
        for name, gos in gdn.object_servers.items():
            for oid_hex, replica in gos.replicas.items():
                if replica.role != "slave":
                    continue
                master_gos = next(
                    g for g in gdn.object_servers.values()
                    if oid_hex in g.replicas
                    and g.replicas[oid_hex].role == "master")
                master_version = \
                    master_gos.replicas[oid_hex].replication.version
                assert replica.replication.version == master_version, \
                    "%s lagging on %s" % (name, oid_hex[:8])
        return True

    soak.invariant("master/slave replicas converged", replicas_converged)
    soak.invariant("crashed server recovered and serving",
                   lambda: victim.up and len(
                       gdn.object_servers["gos-r1-0"].replicas) > 0)

    meter = gdn.world.network.meter

    def accounting_consistent():
        assert meter.total_bytes > 0 and meter.total_messages > 0
        served = sum(h.requests_served for h in gdn.httpds)
        assert served > 0, "no HTTPD served anything"
        return True

    soak.invariant("traffic accounting consistent", accounting_consistent)

    # -- run --------------------------------------------------------------
    print("driving %d requests (%d open-loop + %d closed-loop clients) "
          "with a crash+recovery and a partition mid-run..."
          % (expected, OPEN_REQUESTS, CLIENTS))
    report = soak.run(limit=1e9)

    print("\nfault log:")
    for when, kind, target in report.fault_log:
        print("  %7.2fs  %-9s %s" % (when - base, kind, target))
    summary = report.summary()
    print("\n%d requests: %d ok, %d failed (errors: %s)"
          % (summary["issued"], summary["ok"], summary["failed"],
             dict(stats.errors) or "none"))
    print("mean latency %.1f ms, p95 %.1f ms, %.1fs simulated"
          % (stats.latency.mean * 1e3, stats.latency.p(95) * 1e3,
             report.elapsed))
    print("\n%s" % report.phase_table())
    print("\ninvariants: %d checked, %d violated"
          % (report.invariants_checked, len(report.failures)))
    for name, why in report.failures:
        print("  VIOLATED %s: %s" % (name, why))
    if not report.ok:
        sys.exit(1)
    print("\nsoak complete: all invariants hold.")


if __name__ == "__main__":
    main()
