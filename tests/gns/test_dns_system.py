"""Integration tests: authoritative servers, resolvers, updates, AXFR."""

import pytest

from repro.gns.dns.records import ResourceRecord, RRType
from repro.gns.dns.resolver import CachingResolver, ResolutionError
from repro.gns.dns.server import DNS_PORT, AuthoritativeServer
from repro.gns.dns.tsig import TsigKey, TsigKeyring, sign_message
from repro.gns.dns.zone import Rcode, Zone
from repro.sim.topology import Topology
from repro.sim.world import World

GDN_ZONE = "gdn.cs.vu.nl"
KEY = TsigKey("gdn-key", b"gdn-secret")


def run(world, generator, host=None, limit=1e6):
    process = (host.spawn(generator) if host is not None
               else world.sim.process(generator))
    return world.run_until(process, limit=limit)


class DnsBed:
    """Root -> nl -> GDN zone deployment with one secondary."""

    def __init__(self, seed=9):
        topo = Topology.balanced(regions=2, countries=2, cities=2, sites=2)
        self.world = World(topology=topo, seed=seed)
        world = self.world

        self.root_host = world.host("dns-root", "r1/c0/m0/s0")
        self.tld_host = world.host("dns-nl", "r0/c1/m0/s0")
        self.primary_host = world.host("dns-gdn-1", "r0/c0/m0/s0")
        self.secondary_host = world.host("dns-gdn-2", "r1/c1/m0/s0")

        keyring = TsigKeyring()
        keyring.add(KEY)

        self.root = AuthoritativeServer(world, self.root_host)
        root_zone = Zone("", primary_host="dns-root")
        root_zone.add_record(ResourceRecord("nl", RRType.NS, 3600, "dns-nl"))
        self.root.add_primary_zone(root_zone)
        self.root.start()

        self.tld = AuthoritativeServer(world, self.tld_host)
        nl_zone = Zone("nl", primary_host="dns-nl")
        nl_zone.add_record(ResourceRecord(GDN_ZONE, RRType.NS, 3600,
                                          "dns-gdn-1"))
        nl_zone.add_record(ResourceRecord(GDN_ZONE, RRType.NS, 3600,
                                          "dns-gdn-2"))
        self.tld.add_primary_zone(nl_zone)
        self.tld.start()

        self.primary = AuthoritativeServer(world, self.primary_host,
                                           keyring=keyring)
        gdn_zone = Zone(GDN_ZONE, primary_host="dns-gdn-1")
        gdn_zone.add_record(ResourceRecord(
            "gimp.apps." + GDN_ZONE, RRType.TXT, 300, "globe-oid=aa"))
        self.primary.add_primary_zone(
            gdn_zone, secondaries=[("dns-gdn-2", DNS_PORT)])
        self.primary.start()

        self.secondary = AuthoritativeServer(world, self.secondary_host,
                                             keyring=keyring)
        self.secondary.add_secondary_zone(GDN_ZONE, ("dns-gdn-1", DNS_PORT))
        self.secondary.start()
        run(world, self.secondary.initial_transfers(),
            host=self.secondary_host)

    def resolver(self, name, site):
        host = self.world.host(name, site)
        return CachingResolver(self.world, host, [("dns-root", DNS_PORT)])

    def in_sync(self):
        return (self.secondary.zones[GDN_ZONE].serial
                == self.primary.zones[GDN_ZONE].serial)

    def catch_up(self, limit=60.0):
        """Step the world until r1's secondary holds the primary's
        serial: a resolver asks its nearest server, so an r1 resolver
        sees an update one NOTIFY and zone transfer after the primary."""
        deadline = self.world.now + limit
        while not self.in_sync():
            assert self.world.now < deadline, "secondary never caught up"
            self.world.sim.step()


@pytest.fixture
def bed():
    return DnsBed()


def test_full_iterative_resolution(bed):
    resolver = bed.resolver("user-1", "r0/c0/m0/s1")
    result = run(bed.world,
                 resolver.resolve("gimp.apps." + GDN_ZONE, RRType.TXT),
                 host=resolver.host)
    assert result.ok
    assert result.records[0].data == "globe-oid=aa"
    assert not result.from_cache
    assert resolver.queries_sent == 3  # root -> nl -> gdn


def test_second_resolution_is_cached(bed):
    resolver = bed.resolver("user-1", "r0/c0/m0/s1")
    name = "gimp.apps." + GDN_ZONE

    def twice():
        first = yield from resolver.resolve(name, RRType.TXT)
        second = yield from resolver.resolve(name, RRType.TXT)
        return first, second

    first, second = run(bed.world, twice(), host=resolver.host)
    assert not first.from_cache
    assert second.from_cache
    assert resolver.queries_sent == 3  # no extra queries for the hit
    assert resolver.cache_hits == 1


def test_cache_expires_after_ttl(bed):
    resolver = bed.resolver("user-1", "r0/c0/m0/s1")
    name = "gimp.apps." + GDN_ZONE

    def with_gap():
        yield from resolver.resolve(name, RRType.TXT)
        queries_before = resolver.queries_sent
        yield bed.world.sim.timeout(600)  # past the 300s TTL
        result = yield from resolver.resolve(name, RRType.TXT)
        return result, resolver.queries_sent - queries_before

    result, extra_queries = run(bed.world, with_gap(), host=resolver.host)
    assert not result.from_cache
    # The referral path was still cached (NS ttl 3600), so only the
    # final authoritative query was repeated.
    assert extra_queries == 1


def test_cache_disabled_repeats_full_walk(bed):
    resolver = bed.resolver("user-1", "r0/c0/m0/s1")
    name = "gimp.apps." + GDN_ZONE

    def twice():
        yield from resolver.resolve(name, RRType.TXT)
        resolver._cache.clear()
        yield from resolver.resolve(name, RRType.TXT)

    run(bed.world, twice(), host=resolver.host)
    assert resolver.queries_sent == 6


def test_nxdomain_resolution(bed):
    resolver = bed.resolver("user-1", "r0/c0/m0/s1")
    result = run(bed.world,
                 resolver.resolve("nothing.apps." + GDN_ZONE, RRType.TXT),
                 host=resolver.host)
    assert result.rcode == Rcode.NXDOMAIN
    assert not result.ok


def test_resolve_txt_helper_raises_on_missing(bed):
    resolver = bed.resolver("user-1", "r0/c0/m0/s1")

    def attempt():
        try:
            yield from resolver.resolve_txt("nothing.apps." + GDN_ZONE)
        except ResolutionError:
            return "missing"

    assert run(bed.world, attempt(), host=resolver.host) == "missing"


def test_signed_update_applies_and_notifies_secondary(bed):
    client_host = bed.world.host("authority", "r0/c0/m0/s1")
    from repro.sim.rpc import UdpRpcClient
    client = UdpRpcClient(client_host)
    message = {
        "zone": GDN_ZONE,
        "adds": [{"name": "tetex.apps." + GDN_ZONE, "type": "TXT",
                  "ttl": 300, "data": "globe-oid=bb"}],
        "deletes": [],
    }
    signed = sign_message(message, KEY)

    def send():
        reply = yield from client.call(bed.primary_host, DNS_PORT, "update",
                                       signed)
        return reply

    reply = run(bed.world, send(), host=client_host)
    assert reply["rcode"] == Rcode.NOERROR
    bed.world.run(until=bed.world.now + 10)  # NOTIFY + AXFR settle
    assert bed.secondary.zones[GDN_ZONE].serial == reply["serial"]
    assert bed.secondary.zones[GDN_ZONE].rrset(
        "tetex.apps." + GDN_ZONE, RRType.TXT)


def test_a_name_outside_every_hosted_zone_is_refused(bed):
    client_host = bed.world.host("asker", "r0/c0/m0/s1")
    from repro.sim.rpc import UdpRpcClient
    client = UdpRpcClient(client_host)
    reply = run(bed.world,
                client.call(bed.primary_host, DNS_PORT, "query",
                            {"name": "www.example.org", "type": "A"}),
                host=client_host)
    assert reply["rcode"] == Rcode.REFUSED
    assert reply["authoritative"] is False
    assert reply["answers"] == [] and reply["referral"] == []


def test_unsigned_update_rejected(bed):
    client_host = bed.world.host("attacker", "r0/c0/m0/s1")
    from repro.sim.rpc import UdpRpcClient
    client = UdpRpcClient(client_host)
    message = {"zone": GDN_ZONE, "deletes": [],
               "adds": [{"name": "evil.apps." + GDN_ZONE, "type": "TXT",
                         "ttl": 300, "data": "globe-oid=ee"}]}

    def send():
        reply = yield from client.call(bed.primary_host, DNS_PORT, "update",
                                       message)
        return reply

    reply = run(bed.world, send(), host=client_host)
    assert reply["rcode"] == Rcode.BADSIG
    assert bed.primary.updates_rejected == 1
    assert not bed.primary.zones[GDN_ZONE].rrset(
        "evil.apps." + GDN_ZONE, RRType.TXT)


def _send_update(bed, message):
    from repro.sim.rpc import UdpRpcClient
    client_host = bed.world.hosts.get("authority") \
        or bed.world.host("authority", "r0/c0/m0/s1")
    client = UdpRpcClient(client_host)
    return run(bed.world,
               client.call(bed.primary_host, DNS_PORT, "update",
                           sign_message(message, KEY)),
               host=client_host)


def test_update_is_applied_whole_or_not_at_all(bed):
    """RFC 2136 §3.4: a signed update whose second add is outside the
    zone leaves records, serial and journal untouched — and answers
    with an rcode, not a leaked exception."""
    zone = bed.primary.zones[GDN_ZONE]
    zone.bump_serial()  # seal the bed's initial record
    before = zone.to_wire()
    reply = _send_update(bed, {
        "zone": GDN_ZONE,
        "deletes": [{"name": "gimp.apps." + GDN_ZONE, "type": "TXT"}],
        "adds": [{"name": "tetex.apps." + GDN_ZONE, "type": "TXT",
                  "ttl": 300, "data": "globe-oid=bb"},
                 {"name": "tetex.apps.elsewhere.org", "type": "TXT",
                  "ttl": 300, "data": "globe-oid=cc"}]})
    assert reply == {"rcode": Rcode.NOTZONE}
    assert zone.to_wire() == before
    assert zone.deltas_since(before["serial"]) == []
    assert bed.primary.updates_rejected == 1
    assert bed.primary.updates_applied == 0
    # Nothing half-applied waits to ride in the next commit either.
    reply = _send_update(bed, {"zone": GDN_ZONE, "deletes": [], "adds": []})
    assert reply["rcode"] == Rcode.NOERROR
    (delta,) = zone.deltas_since(before["serial"])
    assert delta["changes"] == []
    bed.world.run(until=bed.world.now + 10)
    assert bed.secondary.zones[GDN_ZONE].rrset("gimp.apps." + GDN_ZONE,
                                               RRType.TXT)


@pytest.mark.parametrize("adds, deletes", [
    ([{"name": "x." + GDN_ZONE, "type": "TXT", "ttl": 300}], []),  # no data
    ([{"name": "x." + GDN_ZONE, "type": "BOGUS", "ttl": 300,
       "data": "d"}], []),
    ([{"name": "bad_label." + GDN_ZONE, "type": "TXT", "ttl": 300,
       "data": "d"}], []),
    ([], [{"name": "gimp.apps." + GDN_ZONE, "type": "BOGUS"}]),
    ([], [{"type": "TXT"}]),
])
def test_malformed_update_is_refused_before_anything_is_applied(
        bed, adds, deletes):
    zone = bed.primary.zones[GDN_ZONE]
    before = zone.to_wire()
    valid_add = {"name": "ok.apps." + GDN_ZONE, "type": "TXT", "ttl": 300,
                 "data": "globe-oid=dd"}
    reply = _send_update(bed, {"zone": GDN_ZONE, "deletes": deletes,
                               "adds": [valid_add] + adds})
    assert reply == {"rcode": Rcode.FORMERR}
    assert zone.to_wire() == before


def test_update_to_secondary_not_authoritative(bed):
    client_host = bed.world.host("authority", "r0/c0/m0/s1")
    from repro.sim.rpc import UdpRpcClient
    client = UdpRpcClient(client_host)
    signed = sign_message({"zone": GDN_ZONE, "adds": [], "deletes": []}, KEY)

    def send():
        reply = yield from client.call(bed.secondary_host, DNS_PORT,
                                       "update", signed)
        return reply

    assert run(bed.world, send(), host=client_host)["rcode"] == Rcode.NOTAUTH


def test_resolution_survives_primary_failure_via_secondary(bed):
    """Multiple authoritative servers carry the load (paper §5)."""
    bed.primary_host.crash()
    resolver = bed.resolver("user-1", "r0/c0/m0/s1")
    result = run(bed.world,
                 resolver.resolve("gimp.apps." + GDN_ZONE, RRType.TXT),
                 host=resolver.host, limit=1e7)
    assert result.ok
