"""The resolver's parsed-answer cache and the name memos.

A cached answer is stored parsed, as the very object a hit returns, and
names are validated once per spelling.  What that must not change: TTL
expiry, a cleared cache, negative caching, what a
re-registered name resolves to, and the three public counters.
"""

import pytest

from repro.gns.authority import NAME_TTL, NamingAuthority
from repro.gns.dns.records import (NAME_MEMO_SIZE, DnsError, ResourceRecord,
                                   RRType, normalize_name)
from repro.gns.dns.resolver import (NEGATIVE_TTL, CachingResolver,
                                    ResolutionError)
from repro.gns.dns.server import DNS_PORT
from repro.gns.dns.zone import Rcode
from repro.gns.gns import GlobeNameService, GnsError, object_name_to_dns
from repro.sim import rpc

from tests.gns.test_dns_system import KEY, GDN_ZONE, DnsBed, run

NAME = "gimp.apps." + GDN_ZONE  # TXT, ttl 300, in the bed's GDN zone


@pytest.fixture
def bed():
    return DnsBed()


def _counters(resolver):
    return (resolver.resolutions, resolver.cache_hits, resolver.queries_sent)


def test_a_resolver_needs_a_root_hint_and_an_answering_server(bed):
    host = bed.world.host("user", "r0/c0/m0/s1")
    with pytest.raises(ResolutionError, match="root hint"):
        CachingResolver(bed.world, host, [])
    # A server outside the name's delegation refuses it.
    resolver = CachingResolver(bed.world, host, [("dns-gdn-1", DNS_PORT)])
    with pytest.raises(ResolutionError, match="REFUSED"):
        run(bed.world, resolver.resolve("x.example.com", RRType.TXT),
            host=host)


def test_a_resolver_follows_an_alias_and_refuses_no_data(bed):
    zone = bed.primary.zones[GDN_ZONE]
    zone.add_record(ResourceRecord("alias.apps." + GDN_ZONE, RRType.CNAME,
                                   300, NAME))
    zone.add_record(ResourceRecord("host.apps." + GDN_ZONE, RRType.A, 300,
                                   "10.0.0.1"))
    resolver = bed.resolver("user", "r0/c0/m0/s1")  # asks the primary
    assert run(bed.world, resolver.resolve_txt("alias.apps." + GDN_ZONE),
               host=resolver.host) == "globe-oid=aa"
    with pytest.raises(ResolutionError, match="no TXT record"):
        run(bed.world, resolver.resolve_txt("host.apps." + GDN_ZONE),
            host=resolver.host)


def test_a_zero_ttl_answer_is_never_cached(bed):
    zone = bed.primary.zones[GDN_ZONE]
    zone.add_record(ResourceRecord("now.apps." + GDN_ZONE, RRType.TXT, 0,
                                   "globe-oid=cc"))
    resolver = bed.resolver("user", "r0/c0/m0/s1")

    def twice():
        for _ in range(2):  # the second at the instant the first ends
            yield from resolver.resolve_txt("now.apps." + GDN_ZONE)

    run(bed.world, twice(), host=resolver.host)
    assert resolver.cache_hits == 0


def test_entry_is_served_until_its_ttl_and_not_after(bed):
    resolver = bed.resolver("user-1", "r0/c0/m0/s1")

    def script():
        first = yield from resolver.resolve(NAME, RRType.TXT)
        cached_at = bed.world.now
        seen = []
        for age in (299.0, 300.0, 300.5):
            yield bed.world.sim.timeout(cached_at + age - bed.world.now)
            before = resolver.queries_sent
            result = yield from resolver.resolve(NAME, RRType.TXT)
            seen.append((result.from_cache, resolver.queries_sent - before))
        return first, seen

    first, seen = run(bed.world, script(), host=resolver.host)
    assert not first.from_cache
    # Still cached at exactly its TTL; one authoritative query after
    # (the NS referrals, ttl 3600, are still cached).
    assert seen == [(True, 0), (True, 0), (False, 1)]


def test_flush_and_disable_bypass_a_cached_entry(bed):
    resolver = bed.resolver("user-1", "r0/c0/m0/s1")

    def script():
        yield from resolver.resolve(NAME, RRType.TXT)
        walk = resolver.queries_sent
        resolver._cache.clear()
        flushed = yield from resolver.resolve(NAME, RRType.TXT)
        after_flush = resolver.queries_sent - walk
        return walk, flushed, after_flush

    walk, flushed, after_flush = run(bed.world, script(),
                                     host=resolver.host)
    assert walk == 3
    assert not flushed.from_cache and after_flush == 3
    assert resolver.cache_hits == 0


def test_negative_answer_honours_negative_ttl(bed):
    resolver = bed.resolver("user-1", "r0/c0/m0/s1")
    missing = "nothing.apps." + GDN_ZONE

    def script():
        first = yield from resolver.resolve(missing, RRType.TXT)
        cached_at = bed.world.now
        yield bed.world.sim.timeout(NEGATIVE_TTL - 1.0)
        before = resolver.queries_sent
        second = yield from resolver.resolve(missing, RRType.TXT)
        hit_queries = resolver.queries_sent - before
        yield bed.world.sim.timeout(cached_at + NEGATIVE_TTL + 1.0
                                    - bed.world.now)
        third = yield from resolver.resolve(missing, RRType.TXT)
        return first, second, hit_queries, third, \
            resolver.queries_sent - before

    first, second, hit_queries, third, miss_queries = run(
        bed.world, script(), host=resolver.host)
    for result in (first, second, third):
        assert result.rcode == Rcode.NXDOMAIN and not result.ok
        assert result.records == ()
    assert (first.from_cache, second.from_cache, third.from_cache) == \
        (False, True, False)
    assert hit_queries == 0 and miss_queries == 1


def test_callers_cannot_corrupt_a_shared_answer(bed):
    resolver = bed.resolver("user-1", "r0/c0/m0/s1")

    def script():
        results = []
        for _ in range(3):
            result = yield from resolver.resolve(NAME, RRType.TXT)
            results.append(result)
            # What a careless caller might do with its answer.
            with pytest.raises(AttributeError):
                result.records.append(None)
            with pytest.raises(AttributeError):
                result.records = ()
            with pytest.raises(AttributeError):
                result.rcode = Rcode.NXDOMAIN
            with pytest.raises(TypeError):
                result.records[0] = None
        return results

    results = run(bed.world, script(), host=resolver.host)
    assert [r.from_cache for r in results] == [False, True, True]
    for result in results:
        assert result.ok and isinstance(result.records, tuple)
        assert [r.to_wire() for r in result.records] == [
            {"name": NAME, "type": "TXT", "ttl": 300,
             "data": "globe-oid=aa"}]


def test_reregistered_name_is_seen_after_ttl_expiry(bed):
    authority = NamingAuthority(
        bed.world, bed.world.host("gns-authority", "r0/c0/m0/s1"),
        primary=("dns-gdn-1", DNS_PORT), tsig_key=KEY, zone=GDN_ZONE,
        batch_window=0.05)
    authority.start()
    tool_host = bed.world.host("modtool", "r0/c1/m0/s1")
    resolver = bed.resolver("user-1", "r1/c0/m0/s1")
    gns = GlobeNameService(resolver, zone=GDN_ZONE)

    def call(method, args):
        return rpc.call(tool_host, authority.host, authority.port, method,
                        args)

    def reregister(oid):
        yield from call("remove_name", {"name": "/apps/Moved"})
        yield from call("add_name", {"name": "/apps/Moved", "oid": oid})

    def drive(generator):
        return run(bed.world, generator, host=tool_host, limit=1e7)

    # The r1 user asks r1's secondary: each resolve waits until it has
    # applied the primary's update (one NOTIFY and zone transfer).
    drive(call("add_name", {"name": "/apps/Moved", "oid": "a1"}))
    bed.catch_up()
    first = drive(gns.resolve("/apps/Moved"))
    cached_at = bed.world.now
    drive(reregister("b2"))
    bed.catch_up()
    stale = drive(gns.resolve("/apps/Moved"))

    def after_ttl():
        yield bed.world.sim.timeout(cached_at + NAME_TTL + 1.0
                                    - bed.world.now)
        fresh = yield from gns.resolve("/apps/Moved")
        return fresh

    fresh = drive(after_ttl())
    # The cached mapping is served for its TTL (§5's price of caching),
    # then the new identifier appears: exactly the seed's behaviour.
    assert (first, stale, fresh) == ("a1", "a1", "b2")
    assert resolver.cache_hits == 1


def test_counters_advance_exactly_as_at_the_seed(bed):
    """One scripted mix of misses, hits, negative hits, an expiry, a
    flush and an alias-free NODATA; the numbers were read off the seed
    commit's resolver running this same script."""
    resolver = bed.resolver("user-1", "r0/c0/m0/s1")
    gns = GlobeNameService(resolver, zone=GDN_ZONE)
    trail = []

    def script():
        for _ in range(3):
            yield from gns.resolve("/apps/Gimp")
        trail.append(_counters(resolver))
        for _ in range(2):
            with pytest.raises(GnsError):
                yield from gns.resolve("/apps/Nothing")
        trail.append(_counters(resolver))
        yield from resolver.resolve(NAME, RRType.A)      # NODATA
        yield from resolver.resolve(NAME, "A")           # ... cached
        yield from resolver.resolve(" Gimp.Apps.%s. " % GDN_ZONE.upper(),
                                    "TXT")               # same name
        trail.append(_counters(resolver))
        yield bed.world.sim.timeout(400.0)               # TXT ttl is 300
        yield from gns.resolve("/apps/Gimp")
        yield from gns.resolve("/apps/Gimp")
        trail.append(_counters(resolver))
        resolver._cache.clear()
        yield from gns.resolve("/apps/Gimp")
        trail.append(_counters(resolver))

    run(bed.world, script(), host=resolver.host)
    assert gns.resolutions == 8
    assert trail == [(3, 2, 3), (5, 3, 4), (8, 5, 5), (10, 6, 6),
                     (11, 6, 9)]


# -- the name memos ----------------------------------------------------------


def test_name_memos_are_bounded_by_the_module_constant():
    assert normalize_name.cache_info().maxsize == NAME_MEMO_SIZE
    assert object_name_to_dns.cache_info().maxsize == NAME_MEMO_SIZE
    for i in range(NAME_MEMO_SIZE + 500):
        normalize_name("host-%d.example.nl" % i)
        object_name_to_dns("/apps/pkg-%d" % i, GDN_ZONE)
    assert normalize_name.cache_info().currsize == NAME_MEMO_SIZE
    assert object_name_to_dns.cache_info().currsize == NAME_MEMO_SIZE


@pytest.mark.parametrize("name", [
    "", ".", " Gimp.Apps.GDN.vu.NL. ", "a-b.c", "-", "x" * 63 + ".nl",
    "ünï.nl", "٣.nl",
])
def test_memoised_names_equal_unmemoised_ones(name):
    plain = normalize_name.__wrapped__
    assert normalize_name(name) == plain(name)
    assert normalize_name(name) == plain(name)  # and again, from the memo


@pytest.mark.parametrize("name", [
    "has space.nl", "under_score.nl", "x" * 64 + ".nl", "a..b", "a.b/c",
    ".".join(["x" * 60] * 5),
])
def test_a_bad_name_fails_every_time(name):
    for _ in range(2):
        with pytest.raises(DnsError):
            normalize_name(name)


def test_a_bad_object_name_fails_every_time():
    for _ in range(2):
        with pytest.raises(GnsError):
            object_name_to_dns("/apps/my package", GDN_ZONE)
