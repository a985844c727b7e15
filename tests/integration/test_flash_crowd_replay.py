"""Flash-crowd trace replay through a full GDN (ISSUE 8 pins).

Two guarantees around the GLS-lookup cache:

* **Cache off is the reference.**  A deployment built with
  ``gls_cache=None`` (the default) must replay the committed
  ``flash_crowd_small.jsonl`` trace byte-identically run over run —
  the :class:`LoadStats` summary, the latency histogram's canonical
  state, and the kernel event count are pinned, so a cache-layer
  change can never silently perturb the uncached request path.
* **Cache on only removes upstream lookups.**  With the cache enabled
  the same replay serves the same requests (identical ok/failed
  split) while the directory tree sees strictly less traffic.
* **Backoff desynchronizes retries.**  Replaying through a lossy
  window (ISSUE 9), the jittered :class:`ExponentialBackoff` GLS
  retry policy serves no fewer requests than the legacy fixed-beat
  discipline while producing strictly fewer same-instant (10 ms
  bucket) retry collisions across the HTTPDs' GLS clients.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.gdn.deployment import GdnDeployment
from repro.gdn.scenario import ReplicationScenario
from repro.sim.retry import ExponentialBackoff, FixedRetry
from repro.sim.topology import Level, Topology
from repro.workloads.loadgen import LoadStats
from repro.workloads.packages import synthetic_file
from tests.util import trace_replay

#: The trace draws from 6 objects over a 2x2x1x2 topology (see
#: ``tests/traces/README.md``).
OBJECTS = 6
_FILE = "payload.bin"


def _replay(gls_cache, retry_policy=None, loss=None):
    """Replay the bundled flash-crowd trace; return the run
    fingerprint, the deployment (for cache inspection), and the
    merged GLS retry-send timestamps of the HTTPDs' UDP clients.

    ``retry_policy`` is handed to the deployment (None = the legacy
    fixed discipline); ``loss=(probability, start, end)`` opens a
    datagram-loss window at those offsets into the replay."""
    topology = Topology.balanced(regions=2, countries=2, cities=1,
                                 sites=2)
    gdn = GdnDeployment(topology=topology, seed=19, secure=False,
                        gls_cache=gls_cache, retry_policy=retry_policy)
    gdn.add_gos("gos-0", "r0/c0/m0/s0")
    gdn.add_gos("gos-1", "r1/c0/m0/s0")
    # Bindings go stale every second, so the replay keeps exercising
    # the GLS-lookup path instead of resolving each object once.
    gdn.add_httpd("httpd-0", colocate_with="gos-0", binding_ttl=1.0)
    gdn.add_httpd("httpd-1", colocate_with="gos-1", binding_ttl=1.0)
    gdn.initial_sync()
    moderator = gdn.add_moderator("mod", "r0/c0/m0/s1")
    names = ["/apps/flash/Pkg%d" % index for index in range(OBJECTS)]

    def publish():
        for index, name in enumerate(names):
            yield from moderator.create_package(
                name, {_FILE: synthetic_file("flash-%d" % index, 8_000)},
                ReplicationScenario.master_slave("gos-0", ["gos-1"],
                                                 cache_ttl=60.0))

    gdn.run(publish(), host=moderator.host)
    gdn.settle(5.0)
    browser_for = gdn.browser_pool("replay")

    # Instrument every access point's GLS stub: retry send times land
    # in these logs (plain list appends — no simulation events, so the
    # byte-identical pins are unaffected).
    retry_logs = []
    for httpd in gdn.httpds:
        client = httpd.runtime.location_service._client
        client.retry_log = []
        retry_logs.append(client.retry_log)
    if loss is not None:
        probability, start, end = loss
        base = gdn.world.now
        from repro.sim.failures import FailureInjector
        injector = FailureInjector(gdn.world)
        prior = gdn.world.network.params.loss[Level.SITE]

        # Same-site datagrams only: GLS stub -> leaf directory node
        # traffic dies, while browser HTTP (reliable) and cross-site
        # DNS keep working — the outage isolates the retry path under
        # test.
        def window():
            yield gdn.world.sim.timeout_at(base + start)
            injector.set_loss(Level.SITE, probability)
            yield gdn.world.sim.timeout_at(base + end)
            injector.set_loss(Level.SITE, prior)

        gdn.world.sim.process(window())

    def one_request(arrival):
        name = names[arrival.rank]
        if arrival.kind == "read":
            response = yield from browser_for(arrival.site).download(
                name, _FILE)
        else:
            # The trace's writes replay as listing fetches: still a
            # GET through bind, just against the package page.
            response = yield from browser_for(arrival.site).get(
                "/gdn" + name)
        return response.ok

    scenario = trace_replay("flash_crowd_small.jsonl",
                            topology=gdn.world.topology)
    stats = LoadStats(registry=gdn.world.metrics, prefix="replay")
    gdn.run(scenario.drive(gdn.world.sim, one_request,
                           rng=gdn.world.rng_for("flash-replay"),
                           stats=stats), limit=1e9)
    browser_for.close()
    fingerprint = (stats.summary(), stats.latency.state(),
                   gdn.world.sim.events_processed)
    retries = sorted(t for log in retry_logs for t in log)
    return fingerprint, gdn, retries


def _collisions(times, bucket=0.010):
    """Retry sends sharing a 10 ms bucket with an earlier one — the
    synchronized-wave measure (0 = perfectly spread)."""
    counts = Counter(math.floor(t / bucket) for t in times)
    return sum(n - 1 for n in counts.values() if n > 1)


def test_cache_disabled_replay_is_byte_identical():
    first, gdn, _retries = _replay(None)
    assert not gdn.lookup_caches
    second, _gdn, _retries2 = _replay(None)
    assert first == second
    summary = first[0]
    assert summary["issued"] == 140
    assert summary["ok"] == 140
    assert summary["failed"] == 0


def test_cache_on_serves_identically_with_fewer_lookups():
    baseline, gdn_off, _r0 = _replay(None)
    cached, gdn_on, _r1 = _replay({})
    assert cached[0]["issued"] == baseline[0]["issued"] == 140
    assert cached[0]["ok"] == baseline[0]["ok"]
    assert cached[0]["failed"] == baseline[0]["failed"]
    # The whole point: the directory tree absorbs strictly less
    # request traffic once the serving tier coalesces and caches.
    assert gdn_on.gls.total_requests() < gdn_off.gls.total_requests()
    hits = sum(cache.hits for cache in gdn_on.lookup_caches.values())
    assert hits > 0


#: ISSUE 9's partition window: every same-site datagram vanishes for
#: replay seconds 4.5-9.5 — a total GLS-stub outage covering the
#: trace's arrival burst, so the burst's lookups ride out several
#: retry rounds before the network heals.  The outage is shorter than
#: either policy's retry horizon, so no request is lost.
LOSS = (1.0, 4.5, 9.5)


def test_backoff_policy_desynchronizes_gls_retries_under_loss():
    """Flash-crowd arrivals cluster within milliseconds; with the
    fixed-beat legacy discipline the calls they trigger stay
    phase-locked on *every* retry round of the outage, while jittered
    backoff decorrelates them from the second attempt on."""
    legacy, _gdn0, legacy_retries = _replay(
        None, retry_policy=FixedRetry(timeout=1.0, retries=8),
        loss=LOSS)
    jittered, _gdn1, jittered_retries = _replay(
        None, retry_policy=ExponentialBackoff(timeout=1.0, retries=8,
                                              base=0.25, multiplier=2.0,
                                              max_delay=2.0, jitter=0.5),
        loss=LOSS)
    # The outage really forced GLS retries in both arms.
    assert legacy_retries and jittered_retries
    # No LoadStats regression: the new policy serves no fewer requests.
    assert jittered[0]["issued"] == legacy[0]["issued"] == 140
    assert jittered[0]["ok"] >= legacy[0]["ok"]
    # Backing off also retransmits less overall ...
    assert len(jittered_retries) < len(legacy_retries)
    # ... and, the point of the jitter: strictly fewer synchronized
    # same-instant retry sends during the outage.
    assert _collisions(jittered_retries) < _collisions(legacy_retries)
