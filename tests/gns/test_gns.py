"""Tests for the Globe Name Service layer and the Naming Authority."""

import pytest

from repro.gns.authority import MAX_BATCH, NamingAuthority
from repro.gns.dns.records import RRType
from repro.gns.dns.server import DNS_PORT
from repro.gns.dns.tsig import TsigKey
from repro.gns.dns.zone import Rcode
from repro.gns.gns import (GlobeNameService, GnsError, decode_oid_txt,
                           encode_oid_txt, object_name_to_dns)
from repro.sim import rpc

from tests.gns.test_dns_system import KEY, GDN_ZONE, DnsBed, run
from tests.lossy import DatagramMeddler


# -- name mapping (pure functions) -------------------------------------------


def test_object_name_to_dns_reverses_components():
    assert (object_name_to_dns("/apps/graphics/Gimp", "gdn.cs.vu.nl")
            == "gimp.graphics.apps.gdn.cs.vu.nl")


def test_paper_example_mapping():
    # §5: /nl/vu/cs/globe/somePackage -> somePackage.globe.cs.vu.nl
    assert (object_name_to_dns("/nl/vu/cs/globe/somePackage", "")
            == "somepackage.globe.cs.vu.nl")


def test_relative_object_name_rejected():
    with pytest.raises(GnsError):
        object_name_to_dns("apps/gimp", GDN_ZONE)
    with pytest.raises(GnsError, match="empty object name"):
        object_name_to_dns("//", GDN_ZONE)


def test_dns_syntax_restriction_surfaces():
    # The paper's noted disadvantage: DNS restricts name syntax.
    with pytest.raises(GnsError):
        object_name_to_dns("/apps/my package", GDN_ZONE)
    with pytest.raises(GnsError):
        object_name_to_dns("/apps/under_score", GDN_ZONE)


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
    gns = GlobeNameService(resolver, zone=GDN_ZONE)
    oid_hex = run(bed.world, gns.resolve("/apps/Gimp"), host=resolver.host)
    assert oid_hex == "aa"


def test_gns_unknown_name_raises(bed):
    resolver = bed.resolver("user-1", "r0/c0/m0/s1")
    gns = GlobeNameService(resolver, zone=GDN_ZONE)

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
    gns = GlobeNameService(resolver, zone=GDN_ZONE)
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
        reply = yield from rpc.call(tool_host, authority.host,
                                    authority.port, "remove_name",
                                    {"name": "/apps/Tmp"})
        return reply

    assert run(bed.world, add_then_remove(), host=tool_host) == {
        "dns_name": "tmp.apps." + GDN_ZONE, "serial": 3}
    zone = bed.primary.zones[GDN_ZONE]
    assert not zone.rrset("tmp.apps." + GDN_ZONE, RRType.TXT)


def test_authority_rejects_unauthorized_principal(bed):
    def moderators_only(ctx):
        return ctx.peer_principal == "moderator"

    authority = _authority(bed, batch_window=0.05,
                           authorizer=moderators_only)
    tool_host = bed.world.host("rando", "r0/c1/m0/s1")

    def attempt(method):
        try:
            yield from rpc.call(tool_host, authority.host, authority.port,
                                method, {"name": "/apps/Evil", "oid": "66"})
        except rpc.RpcFault as fault:
            return fault.kind

    for method in ("add_name", "remove_name"):
        assert run(bed.world, attempt(method), host=tool_host) == "GnsError"
    assert authority.requests_rejected == 2


def _add_names(bed, authority, names):
    """add_name each of ``names`` from a tool at once, on one channel;
    each call's reply or fault text."""
    tool_host = (bed.world.hosts.get("modtool")
                 or bed.world.host("modtool", "r0/c1/m0/s1"))

    def one(channel, name):
        try:
            reply = yield from channel.call(
                "add_name", {"name": name, "oid": "aa"})
        except rpc.RpcFault as fault:
            return str(fault)
        return reply

    def add_all():
        channel = yield from rpc.RpcChannel.open(
            tool_host, authority.host, authority.port)
        pending = []
        for name in names:
            pending.append(bed.world.sim.process(one(channel, name)))
        results = []
        for process in pending:
            results.append((yield process))
        channel.close()
        return results

    return run(bed.world, add_all(), host=tool_host)


def test_a_batch_holds_at_most_max_batch_names(bed):
    authority = _authority(bed, batch_window=1.0)
    names = ["/apps/pkg%d" % i for i in range(MAX_BATCH + 1)]
    _add_names(bed, authority, names)
    assert authority.updates_sent == 2
    assert authority.names_added == MAX_BATCH + 1


def test_the_get_armed_across_a_window_serves_one_batch_only(bed):
    # The first batch's window closes with the next get armed; that get
    # takes the first name of the next batch, which fills up, and the
    # batch after it starts from a fresh get, not the used one.
    authority = _authority(bed, batch_window=0.5)
    _add_names(bed, authority, ["/apps/a"])
    _add_names(bed, authority, ["/apps/b%d" % i for i in range(MAX_BATCH)])
    bed.world.run(until=bed.world.now + 5.0)
    assert (authority.updates_sent, authority.names_added) \
        == (2, MAX_BATCH + 1)


def test_a_failed_or_refused_update_fails_every_name_of_its_batch(bed):
    # The primary refuses an UPDATE signed with another key ...
    authority = _authority(bed, batch_window=0.5)
    authority.tsig_key = TsigKey(KEY.name, b"not the zone's secret")
    assert _add_names(bed, authority, ["/apps/a", "/apps/b"]) == [
        "GnsError: zone update rejected: BADSIG"] * 2
    # ... and an UPDATE to a primary that is down fails (after the UDP
    # client's retries).
    authority.tsig_key = KEY
    bed.world.hosts["dns-gdn-1"].crash()
    results = _add_names(bed, authority, ["/apps/c", "/apps/d"])
    assert [text.split(":")[:2] for text in results] == [
        ["GnsError", " zone update failed"]] * 2


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
    gns = GlobeNameService(resolver, zone=GDN_ZONE)

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


LATE_UPDATE_REASON = ("ROADMAP item 15, 'Late and replayed mutations': "
                      "a zone UPDATE carries no order and its TSIG no "
                      "time, so a held-back add re-adds a name removed "
                      "after it")


@pytest.mark.xfail(strict=True, reason=LATE_UPDATE_REASON)
def test_a_late_update_does_not_bring_back_a_removed_name(bed):
    """The authority's first signed UPDATE is held 10 s, past its 3 s
    timeout.  Its retry adds the name and ``remove_name`` deletes it;
    then the held original reaches the primary and must not add the
    name again."""
    authority = _authority(bed)
    tool_host = bed.world.host("modtool", "r0/c1/m0/s1")
    name = "/apps/editors/Emacs"
    dns_name = "emacs.editors.apps." + GDN_ZONE

    def hold_the_first_update():
        # Inside the batch window: the next message to or from the
        # authority's site is its first UPDATE.
        yield bed.world.sim.timeout(0.25)
        DatagramMeddler(bed.world.network, authority.host.site, late=[0],
                        delay=10.0)

    def add_then_remove():
        bed.world.sim.process(hold_the_first_update())
        channel = yield from rpc.RpcChannel.open(
            tool_host, authority.host, authority.port)
        yield from channel.call("add_name", {"name": name, "oid": "e1"})
        added_at = bed.world.now
        yield from channel.call("remove_name", {"name": name})
        channel.close()
        return added_at

    added_at = run(bed.world, add_then_remove(), host=tool_host)
    assert 3.0 < added_at < 4.0     # the retry added the name
    assert bed.world.now < 10.0      # removed before the original lands
    zone = bed.primary.zones[GDN_ZONE]
    assert zone.answer(dns_name, RRType.TXT).rcode == Rcode.NXDOMAIN
    bed.world.run(until=bed.world.now + 60.0)
    assert zone.answer(dns_name, RRType.TXT).rcode == Rcode.NXDOMAIN
    resolver = bed.resolver("user-1", "r1/c0/m0/s1")
    gns = GlobeNameService(resolver, zone=GDN_ZONE)

    def attempt():
        try:
            yield from gns.resolve(name)
        except GnsError:
            return "unknown"

    assert run(bed.world, attempt(), host=resolver.host) == "unknown"
