"""Serve-stale availability under a GLS outage (ISSUE 8 tentpole).

The flash-crowd cache's third leg: when the location service is
unreachable, an HTTPD with ``serve_stale`` on answers from expired
cache entries instead of turning every request into a 24-second GLS
timeout and a 503.  The soak crashes the leaf directory nodes that
the HTTPDs' GLS clients talk to, keeps a closed-loop browser
population running across the fault, and judges the run with
:meth:`Soak.serve_stale_invariant` — which must pass with the cache
on and fail (on error rate) with the cache off.

Deliberately small TTLs everywhere (bindings and cache entries expire
*inside* the fault window) so availability during the outage can only
come from serve-stale, never from entries that simply outlived it.
"""

from __future__ import annotations

from repro.gdn.deployment import GdnDeployment
from repro.gdn.scenario import ReplicationScenario
from repro.sim.topology import Topology
from repro.workloads.packages import synthetic_file
from repro.workloads.scenario import ClosedLoopScenario, Soak

PACKAGE = "/apps/devel/HotRelease"
_FILE = "release.tar.gz"

#: Bindings and cache entries both expire on this horizon — far
#: shorter than the fault window below.
TTL = 5.0

CRASH_AFTER = 40.0
RESTART_AFTER = 160.0
DRIVE = 200.0


def _run_soak(gls_cache):
    """Build a two-region GDN, crash the HTTPDs' leaf GLS nodes mid
    drive, and return (report, deployment)."""
    topology = Topology.balanced(regions=2, countries=1, cities=1,
                                 sites=2)
    gdn = GdnDeployment(topology=topology, seed=7, secure=False,
                        gls_cache=gls_cache)
    for index, region in enumerate(gdn._regions()):
        gdn.add_gos("gos-%d" % index, next(region.sites()))
    for index, gos_name in enumerate(sorted(gdn.object_servers)):
        gdn.add_httpd("httpd-%d" % index, colocate_with=gos_name,
                      binding_ttl=TTL, cache_policy=lambda _name: TTL)
    gdn.initial_sync()
    moderator = gdn.add_moderator("mod", "r0/c0/m0/s1")

    def publish():
        yield from moderator.create_package(
            PACKAGE, {_FILE: synthetic_file("hot", 20_000)},
            ReplicationScenario.master_slave("gos-0", ["gos-1"],
                                             cache_ttl=60.0))

    gdn.run(publish(), host=moderator.host)
    gdn.settle(5.0)

    browser_for = gdn.browser_pool("soak")

    def one_request(arrival):
        response = yield from browser_for(arrival.site).download(
            PACKAGE, _FILE)
        if not response.ok:
            raise AssertionError("HTTP %d during soak"
                                 % response.status)
        return True

    scenario = ClosedLoopScenario(6, 2.0, duration=DRIVE,
                                  sites=gdn.world.topology.sites,
                                  label="serve-stale")
    soak = Soak(gdn.world, scenario, one_request,
                rng=gdn.world.rng_for("serve-stale-soak"))
    # The GLS outage: every leaf directory node an HTTPD's GLS client
    # can talk to goes down for two minutes.  Replicas, DNS, and the
    # object servers all stay up — only location lookups suffer.
    base = gdn.world.now
    sim = gdn.world.sim
    for httpd in gdn.httpds:
        for node in gdn.gls.nodes[httpd.host.site.path]:
            soak.crash_restart(
                node.host, base + CRASH_AFTER, base + RESTART_AFTER,
                recover=lambda n=node: sim.process(n.recover()))
    soak.serve_stale_invariant(caches=gdn.lookup_caches.values(),
                               require_stale_hits=bool(gls_cache))
    report = soak.run()
    browser_for.close()
    return report, gdn


def test_serve_stale_keeps_availability_during_gls_outage():
    report, gdn = _run_soak({"serve_stale": True,
                             "stale_holdoff": 10.0})
    assert report.ok, report.failures
    # Availability during the fault really came from stale entries.
    stale = sum(cache.stale_served
                for cache in gdn.lookup_caches.values())
    assert stale > 0
    assert report.stats.failed == 0


def test_cache_off_fails_the_availability_invariant():
    """The same soak without the cache: every expired binding turns
    into GLS timeouts and 503s for the whole fault window."""
    report, gdn = _run_soak(None)
    assert not gdn.lookup_caches
    assert not report.ok
    failed = dict(report.failures)
    assert "error rate" in failed["serve-stale-availability"]
    assert report.stats.failed > 0
