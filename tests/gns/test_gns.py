"""Tests for the Globe Name Service layer and the Naming Authority."""

import pytest

from repro.gns.authority import NamingAuthority
from repro.gns.dns.records import RRType
from repro.gns.dns.server import DNS_PORT
from repro.gns.dns.tsig import TsigKey
from repro.gns.gns import (GlobeNameService, GnsError, decode_oid_txt,
                           dns_to_object_name, encode_oid_txt,
                           object_name_to_dns)
from repro.sim import rpc

from tests.gns.test_dns_system import KEY, GDN_ZONE, DnsBed, run


# -- name mapping (pure functions) -------------------------------------------


def test_object_name_to_dns_reverses_components():
    assert (object_name_to_dns("/apps/graphics/Gimp", "gdn.cs.vu.nl")
            == "gimp.graphics.apps.gdn.cs.vu.nl")


def test_paper_example_mapping():
    # §5: /nl/vu/cs/globe/somePackage -> somePackage.globe.cs.vu.nl
    assert (object_name_to_dns("/nl/vu/cs/globe/somePackage", "")
            == "somepackage.globe.cs.vu.nl")


def test_dns_to_object_name_round_trip():
    dns_name = object_name_to_dns("/apps/graphics/gimp", GDN_ZONE)
    assert dns_to_object_name(dns_name, GDN_ZONE) == "/apps/graphics/gimp"


def test_relative_object_name_rejected():
    with pytest.raises(GnsError):
        object_name_to_dns("apps/gimp", GDN_ZONE)


def test_dns_syntax_restriction_surfaces():
    # The paper's noted disadvantage: DNS restricts name syntax.
    with pytest.raises(GnsError):
        object_name_to_dns("/apps/my package", GDN_ZONE)
    with pytest.raises(GnsError):
        object_name_to_dns("/apps/under_score", GDN_ZONE)


def test_foreign_dns_name_rejected():
    with pytest.raises(GnsError):
        dns_to_object_name("gimp.example.org", GDN_ZONE)


def test_oid_txt_encoding():
    assert decode_oid_txt(encode_oid_txt("abcd")) == "abcd"
    with pytest.raises(GnsError):
        decode_oid_txt("not-an-oid")


# -- end-to-end GNS over DNS --------------------------------------------------


@pytest.fixture
def bed():
    return DnsBed()


def _authority(bed, **kwargs):
    host = bed.world.host("gns-authority", "r0/c0/m0/s1")
    authority = NamingAuthority(
        bed.world, host, primary=("dns-gdn-1", DNS_PORT),
        tsig_key=KEY, zone=GDN_ZONE, **kwargs)
    authority.start()
    return authority


def test_gns_resolves_registered_name(bed):
    resolver = bed.resolver("user-1", "r0/c0/m0/s1")
    gns = GlobeNameService(bed.world, resolver.host, resolver, zone=GDN_ZONE)
    oid_hex = run(bed.world, gns.resolve("/apps/Gimp"), host=resolver.host)
    assert oid_hex == "aa"


def test_gns_unknown_name_raises(bed):
    resolver = bed.resolver("user-1", "r0/c0/m0/s1")
    gns = GlobeNameService(bed.world, resolver.host, resolver, zone=GDN_ZONE)

    def attempt():
        try:
            yield from gns.resolve("/apps/Nothing")
        except GnsError:
            return "unknown"

    assert run(bed.world, attempt(), host=resolver.host) == "unknown"


def test_authority_add_name_end_to_end(bed):
    authority = _authority(bed, batch_window=0.1)
    tool_host = bed.world.host("modtool", "r0/c1/m0/s1")

    def add_and_resolve():
        reply = yield from rpc.call(
            tool_host, authority.host, authority.port, "add_name",
            {"name": "/apps/editors/Emacs", "oid": "e1"})
        return reply

    reply = run(bed.world, add_and_resolve(), host=tool_host)
    assert reply["dns_name"] == "emacs.editors.apps." + GDN_ZONE

    bed.catch_up()  # the r1 user asks r1's secondary
    resolver = bed.resolver("user-1", "r1/c0/m0/s1")
    gns = GlobeNameService(bed.world, resolver.host, resolver, zone=GDN_ZONE)
    oid_hex = run(bed.world, gns.resolve("/apps/editors/Emacs"),
                  host=resolver.host)
    assert oid_hex == "e1"


def test_authority_batches_updates(bed):
    authority = _authority(bed, batch_window=1.0)
    tool_host = bed.world.host("modtool", "r0/c1/m0/s1")
    updates_before = bed.primary.updates_applied

    def add_many():
        channel = yield from rpc.RpcChannel.open(
            tool_host, authority.host, authority.port)
        pending = [
            bed.world.sim.process(channel.call(
                "add_name", {"name": "/apps/pkg%d" % i, "oid": "%02x" % i}))
            for i in range(10)]
        for process in pending:
            yield process
        channel.close()

    run(bed.world, add_many(), host=tool_host)
    # Ten names, one DNS UPDATE message (batching, paper §5).
    assert bed.primary.updates_applied - updates_before == 1
    assert authority.updates_sent == 1
    assert authority.names_added == 10


def test_authority_remove_name(bed):
    authority = _authority(bed, batch_window=0.05)
    tool_host = bed.world.host("modtool", "r0/c1/m0/s1")

    def add_then_remove():
        yield from rpc.call(tool_host, authority.host, authority.port,
                            "add_name", {"name": "/apps/Tmp", "oid": "dd"})
        yield from rpc.call(tool_host, authority.host, authority.port,
                            "remove_name", {"name": "/apps/Tmp"})

    run(bed.world, add_then_remove(), host=tool_host)
    zone = bed.primary.zones[GDN_ZONE]
    assert not zone.rrset("tmp.apps." + GDN_ZONE, RRType.TXT)


def test_authority_rejects_unauthorized_principal(bed):
    def moderators_only(ctx):
        return ctx.peer_principal == "moderator"

    authority = _authority(bed, batch_window=0.05,
                           authorizer=moderators_only)
    tool_host = bed.world.host("rando", "r0/c1/m0/s1")

    def attempt():
        try:
            yield from rpc.call(tool_host, authority.host, authority.port,
                                "add_name", {"name": "/apps/Evil",
                                             "oid": "66"})
        except rpc.RpcFault as fault:
            return fault.kind

    assert run(bed.world, attempt(), host=tool_host) == "GnsError"
    assert authority.requests_rejected == 1


def test_two_level_naming_stability(bed):
    """§5: name -> OID mappings stay stable even when replicas move;
    only the GLS layer changes.  The cached TXT record stays valid."""
    authority = _authority(bed, batch_window=0.05)
    tool_host = bed.world.host("modtool", "r0/c1/m0/s1")

    def add():
        yield from rpc.call(tool_host, authority.host, authority.port,
                            "add_name", {"name": "/apps/Stable",
                                         "oid": "5a"})

    run(bed.world, add(), host=tool_host)
    bed.catch_up()  # the r1 user asks r1's secondary
    resolver = bed.resolver("user-1", "r1/c0/m0/s1")
    gns = GlobeNameService(bed.world, resolver.host, resolver, zone=GDN_ZONE)

    def resolve_twice():
        first = yield from gns.resolve("/apps/Stable")
        # Replica movement would re-register contact addresses in the
        # GLS; the name service is untouched, so this resolve is a
        # cache hit with the same OID.
        second = yield from gns.resolve("/apps/Stable")
        return first, second, resolver.cache_hits

    first, second, hits = run(bed.world, resolve_twice(),
                              host=resolver.host)
    assert first == second == "5a"
    assert hits == 1
