"""Soak test: a populated GDN under a mixed workload, end to end.

One deployment, a corpus of packages with advisor-assigned scenarios,
and a workload mixing downloads from every region, searches, moderator
updates, and a mid-run replica crash+recovery.  Asserts global
invariants at the end: every request got a well-formed answer, all
replicas converged, and traffic/metric accounting is consistent.
"""

import random

import pytest

from repro.gdn.deployment import GdnDeployment, standard_spec
from repro.gdn.scenario import ObjectUsage, ScenarioAdvisor
from repro.workloads.packages import generate_corpus
from repro.workloads.population import ClientPopulation


@pytest.mark.slow
def test_gdn_soak():
    gdn = GdnDeployment.from_spec({
        **standard_spec(3, 2, 1, 2), "seed": 777, "secure": False,
        "moderators": {"mod": "r0/c0/m0/s1"}})
    moderator = gdn.moderators["mod"]

    rng = random.Random(777)
    corpus = generate_corpus(10, rng, mean_file_size=20_000)
    population = ClientPopulation(gdn.world.topology, len(corpus),
                                  random.Random(778), alpha=1.0)
    stream = population.generate(150)
    advisor = ScenarioAdvisor(gdn.gos_by_region(), popularity_threshold=8)

    def publish():
        for index, spec in enumerate(corpus):
            usage = ObjectUsage(stream.reads_by_region(index), writes=1)
            yield from moderator.create_package(
                spec.name, spec.materialize(), advisor.recommend(usage))

    gdn.run(publish(), host=moderator.host)
    gdn.settle(10.0)

    outcomes = {"ok": 0, "bad": 0}
    browsers = {}

    def browser_for(site_path):
        if site_path not in browsers:
            browsers[site_path] = gdn.add_browser(
                "soak-%s" % site_path.replace("/", "-"), site_path)
        return browsers[site_path]

    def workload():
        for count, request in enumerate(stream):
            browser = browser_for(request.site.path)
            spec = corpus[request.rank]
            if count % 17 == 3:
                response = yield from browser.get(
                    "/gdn-search?category=%s" % spec.name.split("/")[2])
            else:
                response = yield from browser.download(spec.name,
                                                       spec.largest_file)
            outcomes["ok" if response.ok else "bad"] += 1
            if count == 60:
                # Mid-run: crash and restart one replica host.
                victim = gdn.object_servers["gos-r1-0"]
                victim.host.crash()
                yield gdn.world.sim.timeout(2.0)
                victim.host.restart()
            if count % 29 == 11:
                yield from moderator.update_package(
                    spec.name,
                    attributes={"touched": "round%d" % count})

    gdn.run(workload(), limit=1e9)
    gdn.settle(15.0)

    # Every request answered; failures only possible in the crash
    # window (the crashed host served one region's access point).
    assert outcomes["ok"] + outcomes["bad"] == len(stream)
    assert outcomes["ok"] >= len(stream) * 0.9

    # All master/slave pairs converged after recovery + settling.
    for name, gos in gdn.object_servers.items():
        for oid_hex, replica in gos.replicas.items():
            if replica.role != "slave":
                continue
            master_gos = next(
                g for g in gdn.object_servers.values()
                if oid_hex in g.replicas
                and g.replicas[oid_hex].role == "master")
            master_version = master_gos.replicas[oid_hex] \
                .replication.version
            assert replica.replication.version == master_version, \
                "%s lagging on %s" % (name, oid_hex[:8])

    # Accounting sanity: traffic was metered at every level used, and
    # HTTPDs served what browsers received.
    meter = gdn.world.network.meter
    assert meter.total_bytes > 0
    assert meter.total_messages > 0
    served = sum(h.requests_served for h in gdn.httpds)
    assert served >= len(stream)
    received = sum(b.bytes_received for b in browsers.values())
    assert received > 0
