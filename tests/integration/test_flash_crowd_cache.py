"""The GLS-lookup cache at both extremes of a flash crowd (§1, §3.1).

A release announcement sends a crowd of browsers at one package.  Every
HTTPD binding that expires mid-crowd is a GLS lookup, so without a cache
the directory tree absorbs one lookup per concurrent rebind exactly when
the serving tier is busiest.  Two arms bracket the cache, cache on
against cache off, in simulated time only:

* **spike** — a closed-loop cohort hammers one package through HTTPDs
  whose bindings expire every second.  Singleflight collapses each
  expiry burst into one upstream lookup and refresh-ahead hides even
  that one, so the tree sees ≥ 5× fewer lookups and the crowd is served
  faster.
* **all-unique** — every request names a package nobody asked for
  before, so no hit is possible.  The cache must then be invisible to
  the simulation: the same upstream lookups and the same kernel events.
  What its bookkeeping costs the host is gated by ``gdnbench``'s
  ``long_tail`` workload, not here.
"""

from __future__ import annotations

from repro.gdn.deployment import GdnDeployment
from repro.gdn.scenario import ReplicationScenario
from repro.sim.topology import Topology
from repro.workloads.cohort import CohortScenario
from repro.workloads.loadgen import LoadStats, UniformSchedule
from repro.workloads.packages import synthetic_file
from repro.workloads.scenario import OpenLoopScenario

PACKAGE = "/apps/devel/HotRelease"
_FILE = "release.tar.gz"
CACHE_ON = {}

#: HTTPD bindings go stale on this horizon: every expiry during the
#: crowd is a GLS lookup unless the cache absorbs it.
BINDING_TTL = 1.0
#: The per-object TTL bounds lookup-cache entries: they outlive several
#: binding expiries yet expire inside the drive, so the TTL and
#: refresh-ahead paths run, not only steady-state hits.
CACHE_TTL = 5.0

CROWD = 150
CROWD_SECONDS = 10.0
UNIQUE = 100


def _deployment(gls_cache, packages, replicate=True, batch_window=0.2):
    """Two regions.  The access-point HTTPDs sit at sites *without* a
    GOS, so every lookup walks the tree (a leaf miss, then forwarding
    pointers down from an ancestor): the expensive path."""
    topology = Topology.balanced(regions=2, countries=1, cities=1,
                                 sites=2)
    gdn = GdnDeployment(topology=topology, seed=29, secure=False,
                        gls_cache=gls_cache, batch_window=batch_window)
    for index, region in enumerate(gdn._regions()):
        sites = list(region.sites())
        gdn.add_gos("gos-%d" % index, sites[0])
        gdn.add_httpd("httpd-%d" % index, site=sites[1],
                      binding_ttl=BINDING_TTL,
                      cache_policy=lambda _name: CACHE_TTL)
    gdn.initial_sync()
    moderator = gdn.add_moderator("mod", "r0/c0/m0/s1")
    slaves = ["gos-1"] if replicate else []

    def publish():
        for index, name in enumerate(packages):
            yield from moderator.create_package(
                name, {_FILE: synthetic_file("flash-%d" % index, 8_000)},
                ReplicationScenario.master_slave("gos-0", slaves,
                                                 cache_ttl=600.0))

    gdn.run(publish(), host=moderator.host)
    gdn.settle(5.0)
    return gdn


def _cache_hits_misses(gdn):
    caches = gdn.lookup_caches.values()
    return (sum(cache.hits for cache in caches),
            sum(cache.misses for cache in caches))


def _spike(gls_cache):
    """One warm-up download per site, then the crowd on one package."""
    gdn = _deployment(gls_cache, [PACKAGE])
    world = gdn.world
    browser_for = gdn.browser_pool("crowd")

    def one_request(arrival):
        response = yield from browser_for(arrival.site).download(PACKAGE,
                                                                 _FILE)
        return response.ok

    def warm():
        for site in world.topology.sites:
            response = yield from browser_for(site).download(PACKAGE,
                                                             _FILE)
            assert response.ok
    gdn.run(warm())

    stats = LoadStats(registry=world.metrics, prefix="crowd")
    scenario = CohortScenario(CROWD, 0.5, duration=CROWD_SECONDS,
                              sites=world.topology.sites,
                              label="flash-crowd")
    lookups_before = gdn.gls.total_requests()
    elapsed = gdn.run(scenario.drive(world.sim, one_request,
                                     rng=world.rng_for("crowd"),
                                     stats=stats), limit=1e9)
    browser_for.close()
    assert stats.failed == 0 and stats.ok > 0
    hits, misses = _cache_hits_misses(gdn)
    return {"upstream": gdn.gls.total_requests() - lookups_before,
            "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "goodput": stats.throughput(elapsed),
            "mean_latency": stats.latency.mean}


def _all_unique(gls_cache):
    """Every request downloads its own never-requested package."""
    names = ["/apps/flash/Unique%d" % index for index in range(UNIQUE)]
    # A wide authority batch window keeps publishing the corpus cheap;
    # the drive never touches the authority.
    gdn = _deployment(gls_cache, names, replicate=False, batch_window=2.0)
    world = gdn.world
    browser_for = gdn.browser_pool("unique")

    def one_request(arrival):
        response = yield from browser_for(arrival.site).download(
            names[arrival.index], _FILE)
        return response.ok

    stats = LoadStats(registry=world.metrics, prefix="unique")
    scenario = OpenLoopScenario(UniformSchedule(200.0), UNIQUE,
                                sites=world.topology.sites,
                                label="all-unique")
    lookups_before = gdn.gls.total_requests()
    events_before = world.sim.events_processed
    gdn.run(scenario.drive(world.sim, one_request,
                           rng=world.rng_for("unique"), stats=stats),
            limit=1e9)
    browser_for.close()
    assert stats.ok == UNIQUE
    return {"upstream": gdn.gls.total_requests() - lookups_before,
            "events": world.sim.events_processed - events_before,
            "hits": _cache_hits_misses(gdn)[0]}


def test_flash_crowd_spike_collapses_gls_lookups():
    cached, uncached = _spike(CACHE_ON), _spike(None)
    # The crowd's load on the directory tree collapses ≥ 5× ...
    assert cached["upstream"] * 5 <= uncached["upstream"], (cached,
                                                            uncached)
    assert cached["hit_ratio"] > 0.5, cached
    # ... and the crowd is served faster: hits and refresh-ahead take
    # the lookup round trip off the rebind path.
    assert cached["goodput"] > uncached["goodput"], (cached, uncached)
    assert cached["mean_latency"] < uncached["mean_latency"], (cached,
                                                               uncached)


def test_all_unique_crowd_is_untouched_by_the_cache():
    cached, uncached = _all_unique(CACHE_ON), _all_unique(None)
    assert cached["hits"] == 0
    assert cached["upstream"] == uncached["upstream"] > 0
    assert cached["events"] == uncached["events"]
