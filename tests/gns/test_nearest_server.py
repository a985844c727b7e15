"""A resolver asks the zone's nearest authoritative server (§5).

The GDN Zone is served by a primary in r0 and a secondary in r1.  A
resolver orders the zone's servers by topological distance from its own
host, so resolution stays in its region, and falls back to the next
nearest only when the nearest is down or silent.  The consistency rule
that follows: a name added at the primary becomes visible to a region's
resolvers once that region's server has applied the update, one NOTIFY
and zone transfer later.
"""

import pytest

from repro.gns.dns.records import RRType
from repro.gns.dns.resolver import ResolutionError
from repro.gns.dns.zone import Rcode

from tests.gns.test_dns_system import GDN_ZONE, DnsBed, _send_update, run

NAME = "gimp.apps." + GDN_ZONE
ADDED = "tetex.apps." + GDN_ZONE


@pytest.fixture
def bed():
    return DnsBed()


def _resolve(bed, resolver, name):
    return run(bed.world, resolver.resolve(name, RRType.TXT),
               host=resolver.host, limit=1e7)


def _served(bed):
    return bed.primary.queries_served, bed.secondary.queries_served


def test_a_region_sees_an_update_once_its_server_has_applied_it(bed):
    early = bed.resolver("early", "r1/c0/m0/s1")
    _resolve(bed, early, NAME)  # caches the zone's NS set
    reply = _send_update(bed, {
        "zone": GDN_ZONE, "deletes": [],
        "adds": [{"name": ADDED, "type": "TXT", "ttl": 300,
                  "data": "globe-oid=bb"}]})
    assert reply["rcode"] == Rcode.NOERROR
    served = _served(bed)
    before = _resolve(bed, early, ADDED)
    # r1's secondary answered, and had not applied the update yet.
    assert before.rcode == Rcode.NXDOMAIN and not before.ok
    assert _served(bed) == (served[0], served[1] + 1)
    assert not bed.in_sync()

    bed.catch_up()
    after = _resolve(bed, bed.resolver("fresh", "r1/c0/m0/s1"), ADDED)
    assert after.ok and after.records[0].data == "globe-oid=bb"
    assert _served(bed)[0] == served[0]  # still never the primary


@pytest.mark.parametrize("site, own", [("r0/c1/m1/s1", 0),
                                       ("r1/c0/m1/s1", 1)],
                         ids=["r0", "r1"])
def test_a_resolver_asks_only_its_own_regions_server(bed, site, own):
    resolver = bed.resolver("user", site)
    served = _served(bed)
    assert _resolve(bed, resolver, NAME).ok
    assert _resolve(bed, resolver,
                    "nothing.apps." + GDN_ZONE).rcode == Rcode.NXDOMAIN
    asked = [now - then for now, then in zip(_served(bed), served)]
    assert asked[own] == 2 and asked[1 - own] == 0


@pytest.mark.parametrize("failure", ["crash", "partition"])
def test_the_next_nearest_answers_when_the_nearest_is_down(bed, failure):
    if failure == "crash":
        bed.secondary_host.crash()  # known down: skipped at once
    else:  # up but cut off: asked, timed out, then skipped
        bed.world.network.partition_domain(bed.secondary_host.site)
    resolver = bed.resolver("user", "r1/c0/m0/s1")
    served = _served(bed)
    start = bed.world.now
    result = _resolve(bed, resolver, NAME)
    assert result.ok and result.records[0].data == "globe-oid=aa"
    assert bed.primary.queries_served == served[0] + 1
    waited = bed.world.now - start
    timeouts = resolver._client.timeouts_hit
    if failure == "crash":
        assert timeouts == 0 and waited < 1.0
    else:
        assert timeouts == 1 and waited > 3 * resolver._client.timeout


def test_every_server_down_raises_resolution_error(bed):
    bed.primary_host.crash()
    bed.secondary_host.crash()
    resolver = bed.resolver("user", "r1/c0/m0/s1")

    def attempt():
        try:
            yield from resolver.resolve(NAME, RRType.TXT)
        except ResolutionError as error:
            return error

    error = run(bed.world, attempt(), host=resolver.host, limit=1e7)
    assert isinstance(error, ResolutionError)
    assert "no DNS server reachable" in str(error)
