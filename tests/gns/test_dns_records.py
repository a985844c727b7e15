"""Unit tests for DNS names, records and zones."""

import pytest

from repro.core.journal import JOURNAL_DEPTH
from repro.gns.dns.records import (DnsError, ResourceRecord, RRType,
                                   is_subdomain, normalize_name, parent_name)
from repro.gns.dns.zone import Rcode, Zone


# -- names -------------------------------------------------------------------


def test_normalize_lowercases_and_strips():
    assert normalize_name(" Gimp.Apps.GDN.vu.NL. ") == "gimp.apps.gdn.vu.nl"
    assert normalize_name("") == ""
    assert normalize_name(".") == ""


def test_bad_labels_rejected():
    with pytest.raises(DnsError):
        normalize_name("has space.nl")
    with pytest.raises(DnsError):
        normalize_name("under_score.nl")
    with pytest.raises(DnsError):
        normalize_name("x" * 64 + ".nl")
    with pytest.raises(DnsError):
        normalize_name("a..b")


def test_subdomain_relation():
    assert is_subdomain("a.b.c", "b.c")
    assert is_subdomain("b.c", "b.c")
    assert is_subdomain("anything", "")
    assert not is_subdomain("ab.c", "b.c")
    assert not is_subdomain("b.c", "a.b.c")


def test_labels_and_parent():
    assert parent_name("a.b.c") == "b.c"
    assert parent_name("c") == ""
    with pytest.raises(DnsError):
        parent_name("")


def test_record_wire_round_trip():
    record = ResourceRecord("pkg.gdn.vu.nl", RRType.TXT, 300, "globe-oid=ab")
    assert ResourceRecord.from_wire(record.to_wire()) == record


def test_record_negative_ttl_rejected():
    with pytest.raises(DnsError):
        ResourceRecord("a.nl", RRType.A, -1, "h")


# -- zones -------------------------------------------------------------------


@pytest.fixture
def zone():
    z = Zone("gdn.vu.nl", primary_host="dns-1")
    z.add_record(ResourceRecord("gimp.apps.gdn.vu.nl", RRType.TXT, 300,
                                "globe-oid=aa"))
    z.add_record(ResourceRecord("gimp.apps.gdn.vu.nl", RRType.A, 300, "h1"))
    return z


def _records(zone):
    return {tuple(sorted(wire.items())) for wire in zone.to_wire()["records"]}


def _names(zone):
    return {wire["name"] for wire in zone.to_wire()["records"]}


def test_exact_answer(zone):
    answer = zone.answer("gimp.apps.gdn.vu.nl", RRType.TXT)
    assert answer.rcode == Rcode.NOERROR
    assert answer.answers[0].data == "globe-oid=aa"
    assert answer.authoritative


def test_nxdomain(zone):
    assert zone.answer("nothing.gdn.vu.nl", RRType.TXT).rcode == \
        Rcode.NXDOMAIN


def test_nodata_for_existing_name_wrong_type(zone):
    answer = zone.answer("gimp.apps.gdn.vu.nl", RRType.NS)
    assert answer.rcode == Rcode.NOERROR
    assert answer.answers == []


def test_refused_outside_zone(zone):
    assert zone.answer("other.org", RRType.A).rcode == Rcode.REFUSED


def test_referral_at_zone_cut():
    parent = Zone("nl", primary_host="dns-nl")
    parent.add_record(ResourceRecord("gdn.vu.nl", RRType.NS, 600, "dns-1"))
    answer = parent.answer("gimp.apps.gdn.vu.nl", RRType.TXT)
    assert answer.referral
    assert not answer.authoritative
    assert answer.referral[0].data == "dns-1"


def test_cname_returned_for_other_types(zone):
    zone.add_record(ResourceRecord("thegimp.apps.gdn.vu.nl", RRType.CNAME,
                                   300, "gimp.apps.gdn.vu.nl"))
    answer = zone.answer("thegimp.apps.gdn.vu.nl", RRType.TXT)
    assert answer.answers[0].rtype == RRType.CNAME


def test_duplicate_add_is_idempotent(zone):
    before = len(zone.to_wire()["records"])
    zone.add_record(ResourceRecord("gimp.apps.gdn.vu.nl", RRType.TXT, 300,
                                   "globe-oid=aa"))
    assert len(zone.to_wire()["records"]) == before


def test_remove_rrset(zone):
    assert zone.remove_rrset("gimp.apps.gdn.vu.nl", RRType.TXT)
    assert not zone.remove_rrset("gimp.apps.gdn.vu.nl", RRType.TXT)
    assert zone.answer("gimp.apps.gdn.vu.nl", RRType.TXT).answers == []


def test_record_outside_zone_rejected(zone):
    with pytest.raises(DnsError):
        zone.add_record(ResourceRecord("other.org", RRType.A, 300, "h"))


def test_zone_wire_round_trip(zone):
    zone.bump_serial()
    restored = Zone.from_wire(zone.to_wire())
    assert restored.serial == zone.serial
    assert _records(restored) == _records(zone)
    assert restored.answer("gimp.apps.gdn.vu.nl", RRType.TXT).answers


def test_serial_bumps_monotonically(zone):
    first = zone.bump_serial()
    second = zone.bump_serial()
    assert second == first + 1


# -- owner names: NODATA vs NXDOMAIN -------------------------------------------

NAME = "gimp.apps.gdn.vu.nl"


def _negative(zone, name=NAME):
    """How the zone says no for a type nothing is stored under."""
    answer = zone.answer(name, RRType.NS)
    assert answer.answers == []
    return "NODATA" if answer.rcode == Rcode.NOERROR else answer.rcode


def test_owner_name_lives_as_long_as_one_rrset_does(zone):
    assert _negative(zone) == "NODATA"
    zone.remove_rrset(NAME, RRType.TXT)
    assert _negative(zone) == "NODATA"  # the A rrset still owns it
    zone.remove_record(ResourceRecord(NAME, RRType.A, 300, "h1"))
    assert _negative(zone) == Rcode.NXDOMAIN
    assert _names(zone) == set()
    zone.add_record(ResourceRecord(NAME, RRType.A, 300, "h2"))
    assert _negative(zone) == "NODATA"


def test_owner_name_outlives_one_record_of_a_larger_rrset(zone):
    zone.remove_rrset(NAME, RRType.TXT)
    zone.add_record(ResourceRecord(NAME, RRType.A, 300, "h2"))
    zone.remove_record(ResourceRecord(NAME, RRType.A, 300, "h1"))
    assert _negative(zone) == "NODATA"
    assert not zone.remove_record(ResourceRecord(NAME, RRType.A, 300, "h1"))
    zone.remove_record(ResourceRecord(NAME, RRType.A, 300, "h2"))
    assert _negative(zone) == Rcode.NXDOMAIN


def test_owner_names_follow_an_applied_delta(zone):
    zone.bump_serial()
    copy = Zone.from_wire(zone.to_wire())
    zone.remove_rrset(NAME, RRType.TXT)
    zone.remove_rrset(NAME, RRType.A)
    zone.add_record(ResourceRecord("tetex.apps.gdn.vu.nl", RRType.TXT, 300,
                                   "globe-oid=bb"))
    zone.bump_serial()
    first = copy.serial
    for delta in zone.deltas_since(first):
        copy.apply_delta(delta)
    assert _negative(copy) == Rcode.NXDOMAIN
    assert _negative(copy, "tetex.apps.gdn.vu.nl") == "NODATA"
    assert _names(copy) == _names(zone) == {"tetex.apps.gdn.vu.nl"}
    # The copy journals the replay alone, so it can feed further copies.
    assert copy.deltas_since(first) == zone.deltas_since(first)


# -- the change journal --------------------------------------------------------


def test_journal_seals_what_was_really_changed_in_order(zone):
    zone.bump_serial()  # seals the fixture's two adds
    serial = zone.serial
    record = ResourceRecord("x.gdn.vu.nl", RRType.TXT, 60, "v")
    zone.add_record(record)
    zone.add_record(record)                        # no change: not noted
    zone.remove_rrset("absent.gdn.vu.nl", RRType.TXT)   # neither
    zone.remove_record(record)
    zone.bump_serial()
    (delta,) = zone.deltas_since(serial)
    assert delta == {"serial": serial + 1,
                     "changes": [[True, record.to_wire()],
                                 [False, record.to_wire()]]}
    assert zone.deltas_since(zone.serial) == []


def test_copy_replays_deltas_to_the_same_records_and_serial(zone):
    zone.bump_serial()
    copy = Zone.from_wire(zone.to_wire())
    for round_ in range(5):
        zone.add_record(ResourceRecord("n%d.gdn.vu.nl" % round_, RRType.TXT,
                                       60, "v"))
        if round_:
            zone.remove_rrset("n%d.gdn.vu.nl" % (round_ - 1), RRType.TXT)
        zone.bump_serial()
    deltas = zone.deltas_since(copy.serial)
    assert [delta["serial"] for delta in deltas] == \
        list(range(copy.serial + 1, zone.serial + 1))
    for delta in deltas:
        copy.apply_delta(delta)
    assert (copy.serial, _records(copy)) == (zone.serial, _records(zone))
    # The replay was journalled: the copy can feed a copy of its own.
    assert copy.deltas_since(zone.serial - 2) == \
        zone.deltas_since(zone.serial - 2)


def test_delta_is_only_applied_onto_the_serial_before_it(zone):
    zone.bump_serial()
    copy = Zone.from_wire(zone.to_wire())
    zone.bump_serial()
    zone.bump_serial()
    first, second = zone.deltas_since(copy.serial)
    with pytest.raises(DnsError):
        copy.apply_delta(second)   # a gap
    copy.apply_delta(first)
    with pytest.raises(DnsError):
        copy.apply_delta(first)    # already applied
    copy.apply_delta(second)
    assert copy.serial == zone.serial


def test_journal_is_bounded_and_says_when_it_cannot_help(zone):
    start = zone.serial
    for _ in range(JOURNAL_DEPTH + 3):
        zone.bump_serial()
    assert zone.deltas_since(start) is None            # fell off the end
    assert zone.deltas_since(zone.serial + 1) is None  # never issued
    assert len(zone.deltas_since(zone.serial - JOURNAL_DEPTH)) == \
        JOURNAL_DEPTH
    assert zone.deltas_since(zone.serial - JOURNAL_DEPTH - 1) is None
    # A copy made from the wire form starts with an empty journal.
    copy = Zone.from_wire(zone.to_wire())
    assert copy.deltas_since(copy.serial) == []
    assert copy.deltas_since(copy.serial - 1) is None


def test_changes_before_the_first_commit_ride_in_the_first_delta(zone):
    # A full copy taken now already has them; replaying them onto it
    # changes nothing.
    copy = Zone.from_wire(zone.to_wire())
    zone.add_record(ResourceRecord("x.gdn.vu.nl", RRType.TXT, 60, "v"))
    zone.bump_serial()
    (delta,) = zone.deltas_since(copy.serial)
    assert len(delta["changes"]) == 3
    copy.apply_delta(delta)
    assert (copy.serial, _records(copy)) == (zone.serial, _records(zone))


def test_a_name_of_253_characters_is_the_longest_accepted():
    longest = ".".join(["a" * 63] * 3 + ["b" * 61])
    assert len(longest) == 253
    assert normalize_name(longest) == longest
    with pytest.raises(DnsError, match="too long"):
        normalize_name(longest + "b")
