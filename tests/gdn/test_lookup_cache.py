"""Unit tests for the flash-crowd GLS-lookup cache.

Covers the four behaviours the serving layer depends on: TTL +
negative caching with an LRU bound, singleflight coalescing (including
crashed waiters and a crashed leader), serve-stale during upstream
outages, and proactive refresh of hot entries — plus the gauge-drain
discipline (no leaked waiters or in-flight records after any run).
"""

import pytest

from repro.analysis.telemetry import MetricsRegistry
from repro.gdn.cache import (NEGATIVE_TTL, REFRESH_AHEAD, STALE_HOLDOFF,
                             STALE_WINDOW, GlsLookupCache)
from repro.gls.service import GlsError
from repro.sim.kernel import Simulator
from repro.sim.rpc import RpcTimeout
from repro.sim.transport import TransportError

WIRES = [{"site": "r0/c0/m0/s0", "protocol": "master_slave",
          "impl_id": "test.kv"}]
MOVED = [{"site": "r1/c0/m0/s0", "protocol": "master_slave",
          "impl_id": "test.kv"}]


class SlowUpstream:
    """Scripted location service: fixed delay, optional failure."""

    def __init__(self, sim, delay=1.0):
        self.sim = sim
        self.delay = delay
        self.records = {}
        self.lookups = 0
        self.registrations = 0
        self.fail_with = None

    def lookup(self, oid_hex):
        self.lookups += 1
        if self.delay:
            yield self.sim.timeout(self.delay)
        if self.fail_with is not None:
            raise self.fail_with
        return list(self.records.get(oid_hex, []))

    def register(self, oid_hex, ca_wire, store_level=0):
        self.registrations += 1
        self.records.setdefault(oid_hex, []).append(ca_wire)
        return oid_hex
        yield  # pragma: no cover

    def unregister(self, oid_hex, ca_wire):
        self.records.get(oid_hex, []).remove(ca_wire)
        return None
        yield  # pragma: no cover


def build(sim=None, delay=1.0, **options):
    sim = sim or Simulator()
    upstream = SlowUpstream(sim, delay=delay)
    upstream.records["oid-1"] = list(WIRES)
    cache = GlsLookupCache(sim, upstream, **options)
    return sim, upstream, cache


def run_lookup(sim, cache, oid_hex, at=None, **kwargs):
    """Drive one cached lookup, issued at sim-time ``at`` (default:
    now), to completion, returning its value."""
    out = {}

    def driver():
        if at is not None:
            yield sim.timeout_at(at)
        out["value"] = yield from cache.lookup(oid_hex, **kwargs)

    sim.process(driver())
    sim.run()
    if "value" not in out:
        raise AssertionError("lookup did not complete")
    return out["value"]


def drained(cache):
    """The after-run invariant: no in-flight records, no parked
    waiters left behind."""
    return cache.flights.inflight == 0 and cache.flights.parked == 0


# -- TTL, negative caching, LRU ------------------------------------------


def test_fresh_hit_within_ttl():
    sim, upstream, cache = build(ttl=60.0)
    first = run_lookup(sim, cache, "oid-1")
    second = run_lookup(sim, cache, "oid-1")
    assert first == WIRES and second == WIRES
    assert upstream.lookups == 1
    assert cache.misses == 1 and cache.hits == 1
    assert drained(cache)


def test_entry_expires_after_ttl():
    sim, upstream, cache = build(ttl=60.0)
    run_lookup(sim, cache, "oid-1")
    expires = cache._entries["oid-1"].expires
    run_lookup(sim, cache, "oid-1", at=expires)   # expired at the instant
    assert upstream.lookups == 2
    assert cache.misses == 2
    sim.run(until=sim.now + 61.0)
    run_lookup(sim, cache, "oid-1")
    assert upstream.lookups == 3
    assert cache.misses == 3


def test_per_lookup_ttl_override():
    sim, upstream, cache = build(ttl=60.0)
    run_lookup(sim, cache, "oid-1", ttl=5.0)
    sim.run(until=sim.now + 6.0)
    run_lookup(sim, cache, "oid-1")
    assert upstream.lookups == 2


def test_negative_caching_and_expiry():
    sim, upstream, cache = build()
    assert run_lookup(sim, cache, "missing") == []
    assert run_lookup(sim, cache, "missing") == []
    assert upstream.lookups == 1
    assert cache.negative_hits == 1
    sim.run(until=sim.now + NEGATIVE_TTL + 1.0)
    run_lookup(sim, cache, "missing")
    assert upstream.lookups == 2


def test_lru_eviction_bounds_occupancy():
    sim, upstream, cache = build(capacity=2)
    upstream.records["oid-2"] = list(WIRES)
    upstream.records["oid-3"] = list(WIRES)
    run_lookup(sim, cache, "oid-1")
    run_lookup(sim, cache, "oid-2")
    run_lookup(sim, cache, "oid-1")   # refresh oid-1's recency
    run_lookup(sim, cache, "oid-3")   # evicts oid-2
    assert len(cache) == 2
    assert cache.evictions == 1
    run_lookup(sim, cache, "oid-1")
    assert cache.hits == 2            # oid-1 survived
    run_lookup(sim, cache, "oid-2")   # gone: upstream consulted again
    assert upstream.lookups == 4


def test_refresh_bypasses_fresh_entry():
    sim, upstream, cache = build()
    run_lookup(sim, cache, "oid-1")
    upstream.records["oid-1"] = list(MOVED)
    assert run_lookup(sim, cache, "oid-1") == WIRES
    assert run_lookup(sim, cache, "oid-1", refresh=True) == MOVED
    assert run_lookup(sim, cache, "oid-1") == MOVED
    assert upstream.lookups == 2


# -- singleflight ---------------------------------------------------------


def fan_out(sim, cache, count, oid_hex="oid-1"):
    """Spawn ``count`` concurrent lookups; return (values, errors)."""
    values, errors = [], []

    def caller():
        try:
            wires = yield from cache.lookup(oid_hex)
        except Exception as exc:
            errors.append(exc)
        else:
            values.append(wires)

    processes = [sim.process(caller()) for _ in range(count)]
    sim.run()
    return processes, values, errors


def test_singleflight_coalesces_concurrent_misses():
    sim, upstream, cache = build(delay=2.0)
    _, values, errors = fan_out(sim, cache, 8)
    assert not errors
    assert len(values) == 8 and all(v == WIRES for v in values)
    assert upstream.lookups == 1
    assert cache.misses == 8 and cache.coalesced == 7
    assert drained(cache)


def test_singleflight_failure_fans_out():
    sim, upstream, cache = build(delay=2.0)
    upstream.fail_with = GlsError("directory fault")
    _, values, errors = fan_out(sim, cache, 5)
    assert not values
    assert len(errors) == 5
    assert all(isinstance(exc, GlsError) for exc in errors)
    assert upstream.lookups == 1
    assert drained(cache)


def test_singleflight_killed_waiter_does_not_leak():
    sim, upstream, cache = build(delay=2.0)
    values, errors = [], []

    def caller():
        try:
            values.append((yield from cache.lookup("oid-1")))
        except Exception as exc:
            errors.append(exc)

    leader = sim.process(caller())
    victim = sim.process(caller())
    survivor = sim.process(caller())

    def assassin():
        yield sim.timeout(1.0)    # mid-flight
        victim.kill()

    sim.process(assassin())
    sim.run()
    assert leader.triggered and survivor.triggered
    assert values == [WIRES, WIRES]
    assert not errors
    assert drained(cache)


def test_singleflight_killed_leader_releases_waiters():
    sim, upstream, cache = build(delay=2.0)
    values, errors = [], []

    def caller():
        try:
            values.append((yield from cache.lookup("oid-1")))
        except Exception as exc:
            errors.append(exc)

    leader = sim.process(caller())
    sim.process(caller())
    sim.process(caller())

    def assassin():
        yield sim.timeout(1.0)
        leader.kill()

    sim.process(assassin())
    sim.run()
    assert not values
    assert len(errors) == 2
    assert all(isinstance(exc, TransportError) for exc in errors)
    assert drained(cache)
    # The key is retryable afterwards.
    assert run_lookup(sim, cache, "oid-1") == WIRES


# -- serve-stale ----------------------------------------------------------


def outage(cache, upstream, sim, ttl=10.0):
    """Fill the entry, let it expire, then take the upstream down."""
    run_lookup(sim, cache, "oid-1", ttl=ttl)
    sim.run(until=sim.now + ttl + 1.0)
    upstream.fail_with = RpcTimeout("gls partitioned")


def test_serve_stale_on_upstream_timeout():
    sim, upstream, cache = build(serve_stale=True)
    outage(cache, upstream, sim)
    assert run_lookup(sim, cache, "oid-1") == WIRES
    assert cache.stale_served == 1
    # Re-armed: requests inside the holdoff are immediate stale hits,
    # not new upstream probes.
    before = upstream.lookups
    assert run_lookup(sim, cache, "oid-1") == WIRES
    assert upstream.lookups == before
    assert cache.stale_served == 2
    assert drained(cache)


def test_serve_stale_fans_out_to_waiters():
    sim, upstream, cache = build(delay=2.0, serve_stale=True)
    outage(cache, upstream, sim)
    _, values, errors = fan_out(sim, cache, 4)
    assert not errors
    assert len(values) == 4 and all(v == WIRES for v in values)
    assert cache.stale_served == 4
    assert drained(cache)


def test_serve_stale_off_propagates_timeout():
    sim, upstream, cache = build(serve_stale=False)
    outage(cache, upstream, sim)
    with pytest.raises(RpcTimeout):
        run_lookup(sim, cache, "oid-1")
    assert drained(cache)


def test_serve_stale_recovers_after_outage():
    sim, upstream, cache = build(serve_stale=True)
    outage(cache, upstream, sim)
    run_lookup(sim, cache, "oid-1")
    upstream.fail_with = None          # partition heals
    sim.run(until=sim.now + STALE_HOLDOFF + 1.0)  # past the holdoff
    assert run_lookup(sim, cache, "oid-1") == WIRES
    entry = cache._entries["oid-1"]
    assert not entry.stale             # fresh again


def test_stale_window_bounds_eligibility():
    sim, upstream, cache = build(serve_stale=True)
    run_lookup(sim, cache, "oid-1", ttl=10.0)
    upstream.fail_with = RpcTimeout("gls partitioned")
    # The upstream timeout lands at exactly expires + STALE_WINDOW:
    # still inside the window.
    last_servable = cache._entries["oid-1"].expires + STALE_WINDOW
    assert run_lookup(sim, cache, "oid-1",
                      at=last_servable - upstream.delay) == WIRES
    assert sim.now == last_servable
    assert cache.stale_served == 1
    sim.run(until=sim.now + 2 * STALE_WINDOW)  # long past ttl + window
    with pytest.raises(RpcTimeout):
        run_lookup(sim, cache, "oid-1")


def test_negative_entries_never_served_stale():
    sim, upstream, cache = build(serve_stale=True)
    run_lookup(sim, cache, "missing")
    sim.run(until=sim.now + NEGATIVE_TTL + 1.0)
    upstream.fail_with = RpcTimeout("gls partitioned")
    with pytest.raises(RpcTimeout):
        run_lookup(sim, cache, "missing")


def test_definitive_fault_never_masked_by_stale():
    sim, upstream, cache = build(serve_stale=True)
    outage(cache, upstream, sim)
    upstream.fail_with = GlsError("no such object")
    with pytest.raises(GlsError):
        run_lookup(sim, cache, "oid-1")
    assert cache.stale_served == 0


# -- proactive refresh ----------------------------------------------------


def test_hot_entry_refreshes_before_expiry():
    sim, upstream, cache = build(ttl=10.0)
    run_lookup(sim, cache, "oid-1")            # t=1: filled, expires t=11
    for _ in range(3):                         # make it hot
        run_lookup(sim, cache, "oid-1")
    sim.run(until=11.0 - REFRESH_AHEAD * 10.0 / 2)  # refresh-ahead span
    run_lookup(sim, cache, "oid-1")            # hit triggers the refresh
    sim.run()                                  # let the refresh land
    assert cache.refreshes == 1
    assert upstream.lookups == 2
    # The crowd never sees the TTL cliff: past the original expiry the
    # refreshed entry still answers without an upstream probe.
    sim.run(until=12.0)
    before = upstream.lookups
    assert run_lookup(sim, cache, "oid-1") == WIRES
    assert upstream.lookups == before
    assert cache.misses == 1


def test_each_refresh_starts_a_new_hit_count():
    sim, upstream, cache = build(ttl=10.0)
    run_lookup(sim, cache, "oid-1")                  # filled, expires 11
    for at in (2.0, 3.0, 3.5, 10.0):                 # hot; refresh at 10
        run_lookup(sim, cache, "oid-1", at=at)
    assert cache.refreshes == 1                      # expires 21 now
    for at in (12.0, 13.0, 20.0):                    # three hits: hot again
        run_lookup(sim, cache, "oid-1", at=at)
    assert cache.refreshes == 2                      # expires 31 now
    run_lookup(sim, cache, "oid-1", at=30.0)         # one hit: not hot
    assert cache.refreshes == 2
    assert upstream.lookups == 3


def test_the_refresh_window_opens_at_its_edge_and_refreshes_once():
    sim, upstream, cache = build(ttl=10.0)
    run_lookup(sim, cache, "oid-1")                  # expires 11
    for at in (2.0, 3.0):
        run_lookup(sim, cache, "oid-1", at=at)
    sim.run(until=11.0 - REFRESH_AHEAD * 10.0)       # the window's edge

    def hit():
        yield from cache.lookup("oid-1")

    for _ in range(2):  # two hits in one instant: the third and fourth
        sim.process(hit())
    sim.run()
    assert cache.refreshes == 1


def test_a_refetched_entry_is_the_most_recently_used():
    sim, upstream, cache = build(ttl=3.0, capacity=2)
    upstream.records["oid-2"] = list(WIRES)
    upstream.records["oid-3"] = list(WIRES)
    run_lookup(sim, cache, "oid-1")                  # expires 4
    run_lookup(sim, cache, "oid-2")                  # expires 5
    run_lookup(sim, cache, "oid-1", at=4.5)          # refetched
    run_lookup(sim, cache, "oid-3")                  # evicts oid-2
    run_lookup(sim, cache, "oid-1")                  # still cached
    assert upstream.lookups == 4


def test_a_cache_holds_at_least_one_entry():
    assert build(capacity=1)[2].capacity == 1
    with pytest.raises(ValueError, match="capacity"):
        build(capacity=0)


def test_cold_entry_never_refreshed():
    sim, upstream, cache = build(ttl=10.0)
    run_lookup(sim, cache, "oid-1")
    sim.run(until=11.0 - REFRESH_AHEAD * 10.0 / 2)
    run_lookup(sim, cache, "oid-1")            # only 1 hit: not hot
    sim.run()
    assert cache.refreshes == 0
    assert upstream.lookups == 1


# -- location-service wrapper + telemetry ---------------------------------


def test_register_invalidates_entry():
    sim, upstream, cache = build()
    run_lookup(sim, cache, "oid-1")

    def registrar():
        yield from cache.register("oid-1", dict(MOVED[0]))

    sim.process(registrar())
    sim.run()
    assert cache.invalidations == 1
    assert run_lookup(sim, cache, "oid-1") == WIRES + MOVED
    assert upstream.lookups == 2


def test_bind_metrics_exposes_counters_and_gauges():
    sim, upstream, cache = build()
    registry = MetricsRegistry()
    GlsLookupCache.bind_metrics(registry, "cache", lambda: cache)
    run_lookup(sim, cache, "oid-1")
    run_lookup(sim, cache, "oid-1")
    assert registry.get("cache.hits").value == 1
    assert registry.get("cache.misses").value == 1
    assert len(cache) == 1
    assert registry.get("cache.inflight").value == 0
    assert registry.get("cache.waiters").value == 0
    assert registry.get("cache.upstream_lookups").value == 1
