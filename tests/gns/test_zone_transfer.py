"""Incremental zone transfer over the simulator's lossy UDP.

A secondary follows its primary by replaying sealed change sets in
serial order.  Nothing below assumes NOTIFYs or transfer answers
arrive, arrive once, or arrive in order: datagrams are lost to
partitions and to a scripted dropper, and the copy must still end up
with the primary's records under the primary's serial.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import journal as journal_module
from repro.gns.dns.records import ResourceRecord, RRType
from repro.gns.dns.server import DNS_PORT, AuthoritativeServer
from repro.gns.dns.zone import JOURNAL_DEPTH, Zone
from repro.sim.network import LinkParameters
from repro.sim.rpc import UdpRpcClient
from repro.sim.topology import Topology
from repro.sim.world import World
from tests.lossy import DatagramMeddler

ZONE = "example.nl"
PRIMARY_SITE = "r0/c0/m0/s0"
CLIENT_SITE = "r0/c0/m0/s1"
SECONDARY_SITE = "r1/c0/m0/s0"
#: Long enough for a call to use up its three attempts (3 s apart).
CALL_GIVES_UP = 10.0


def txt(label, data="v1"):
    return {"name": "%s.%s" % (label, ZONE), "type": "TXT", "ttl": 60,
            "data": data}


def contents(server):
    """What a server holds of the zone: (records as a set, serial)."""
    wire = server.zones[ZONE].to_wire()
    return ({tuple(sorted(record.items())) for record in wire["records"]},
            wire["serial"])


class Bed:
    """One primary in r0, one secondary in r1, an update client beside
    the primary (so cutting r1 off never touches the updates)."""

    def __init__(self, seed=5, refresh_interval=None, initial=("a",),
                 jitter=0.0):
        self.world = World(topology=Topology.balanced(2, 1, 1, 2), seed=seed,
                           params=LinkParameters(jitter_fraction=jitter))
        self.refresh_interval = refresh_interval
        self.primary_host = self.world.host("dns-primary", PRIMARY_SITE)
        self.secondary_host = self.world.host("dns-secondary", SECONDARY_SITE)
        zone = Zone(ZONE, primary_host="dns-primary")
        for label in initial:
            zone.add_record(ResourceRecord.from_wire(txt(label)))
        self.primary = self.start_primary(zone)
        self.secondary = self.start_secondary()
        self.client = UdpRpcClient(self.world.host("updater", CLIENT_SITE))

    def start_primary(self, zone):
        server = AuthoritativeServer(self.world, self.primary_host,
                                     require_tsig_for_updates=False)
        server.add_primary_zone(zone,
                                secondaries=[("dns-secondary", DNS_PORT)])
        server.start()
        return server

    def start_secondary(self):
        server = AuthoritativeServer(self.world, self.secondary_host,
                                     refresh_interval=self.refresh_interval)
        server.add_secondary_zone(ZONE, ("dns-primary", DNS_PORT))
        server.start()
        self.world.run_until(
            self.secondary_host.spawn(server.initial_transfers()), limit=1e6)
        return server

    def update(self, adds=(), deletes=()):
        message = {"zone": ZONE, "adds": list(adds),
                   "deletes": [{"name": "%s.%s" % (label, ZONE),
                                "type": "TXT"} for label in deletes]}
        reply = self.world.run_until(self.client.host.spawn(
            self.client.call(self.primary_host, DNS_PORT, "update",
                             message)), limit=1e6)
        assert reply["rcode"] == "NOERROR"
        return reply["serial"]

    def settle(self, duration=CALL_GIVES_UP):
        self.world.run(until=self.world.now + duration)

    def cut_off_secondary(self):
        self.world.network.partition_domain(self.world.topology.domain("r1"))

    def reconnect_secondary(self):
        self.world.network.heal_domain(self.world.topology.domain("r1"))

    def in_sync(self):
        return contents(self.secondary) == contents(self.primary)


# -- the ordinary case --------------------------------------------------------

def test_an_update_ships_its_own_records_not_the_zone():
    bed = Bed(initial=["n%d" % index for index in range(50)])
    assert bed.primary.full_transfers == 1  # the initial sync
    bed.update(adds=[txt("new")])
    bed.settle()
    assert bed.in_sync()
    assert bed.primary.full_transfers == 1
    # The first change set also carries the zone's initial contents
    # (changes made before the first commit); from then on an update
    # ships exactly what it changed.
    sent = bed.primary.records_sent
    bed.update(adds=[txt("newer"), txt("newest")], deletes=["n7"])
    bed.settle()
    assert bed.in_sync()
    assert bed.primary.records_sent - sent == 3
    assert bed.secondary.records_applied >= 3
    assert bed.primary.full_transfers == 1


# -- (1) a lost NOTIFY --------------------------------------------------------

def test_lost_notify_is_caught_up_by_the_next_in_one_answer():
    bed = Bed()
    bed.update(adds=[txt("warm")])
    bed.settle()
    served, sent = bed.primary.transfers_served, bed.primary.records_sent
    bed.cut_off_secondary()
    bed.update(adds=[txt("b")])
    bed.settle()  # every attempt of that NOTIFY is gone
    bed.reconnect_secondary()
    assert not bed.in_sync()
    serial = bed.update(adds=[txt("c")])
    bed.settle()
    assert bed.in_sync()
    assert bed.secondary.zones[ZONE].serial == serial
    # One answer carried both change sets; no full transfer.
    assert bed.primary.transfers_served - served == 1
    assert bed.primary.records_sent - sent == 2
    assert bed.primary.full_transfers == 1


# -- (2) a gap wider than the journal -----------------------------------------

def test_gap_wider_than_the_journal_falls_back_to_a_full_transfer():
    bed = Bed()
    bed.cut_off_secondary()
    for index in range(JOURNAL_DEPTH + 1):
        bed.update(adds=[txt("n%d" % index)])
    bed.settle()
    bed.reconnect_secondary()
    bed.update(adds=[txt("last")])
    bed.settle()
    assert bed.in_sync()
    assert bed.primary.full_transfers == 2
    # ... and the copy it installed takes change sets again.
    bed.update(deletes=["last"])
    bed.settle()
    assert bed.in_sync()
    assert bed.primary.full_transfers == 2


def test_gap_the_journal_still_covers_is_sent_as_deltas():
    bed = Bed()
    bed.cut_off_secondary()
    for index in range(JOURNAL_DEPTH - 1):
        bed.update(adds=[txt("n%d" % index)])
    bed.settle()
    bed.reconnect_secondary()
    bed.update(adds=[txt("last")])
    bed.settle()
    assert bed.in_sync()
    assert bed.primary.full_transfers == 1


# -- (3) two NOTIFYs in flight ------------------------------------------------

def test_two_notifies_in_flight_apply_each_delta_once():
    bed = Bed()
    bed.update(adds=[txt("warm")])
    bed.settle()
    applied = bed.secondary.records_applied
    fetched = bed.secondary.transfers_fetched
    served, sent = bed.primary.transfers_served, bed.primary.records_sent
    # Two commits within one primary->secondary flight time: both
    # NOTIFYs find the copy behind and both ask from the same serial.
    bed.update(adds=[txt("b")])
    serial = bed.update(adds=[txt("c")])
    bed.settle()
    assert bed.primary.transfers_served - served == 2
    assert bed.primary.records_sent - sent == 4  # both answers: b and c
    assert bed.secondary.records_applied - applied == 2  # ... applied once
    assert bed.secondary.transfers_fetched - fetched == 1
    assert bed.secondary.zones[ZONE].serial == serial
    assert bed.in_sync()


# -- (4) crash and restart ----------------------------------------------------

def test_restarted_secondary_starts_from_a_full_transfer():
    bed = Bed()
    bed.update(adds=[txt("b")])
    bed.settle()
    bed.secondary_host.crash()
    bed.update(adds=[txt("c")])
    bed.settle()
    bed.secondary_host.restart()
    bed.secondary = bed.start_secondary()  # no copy
    assert bed.in_sync()
    assert bed.primary.full_transfers == 2
    bed.update(adds=[txt("d")])
    bed.settle()
    assert bed.in_sync()
    assert bed.primary.full_transfers == 2


def _restart_primary(bed, serial=None):
    """The primary comes back with its records but no journal, under
    the serial it had (``None``) or one it was reset to."""
    wire = bed.primary.zones[ZONE].to_wire()
    if serial is not None:
        wire["serial"] = serial
    bed.primary_host.crash()
    bed.primary_host.restart()
    bed.primary = bed.start_primary(Zone.from_wire(wire))


def test_restarted_primary_keeping_its_serial():
    bed = Bed()
    bed.update(adds=[txt("b")])
    bed.settle()
    _restart_primary(bed)
    bed.update(adds=[txt("c")])
    bed.settle()
    assert bed.in_sync()
    # The new journal starts where the copy stands: no full transfer.
    assert bed.primary.full_transfers == 0


def test_restarted_primary_with_a_secondary_behind_its_new_journal():
    bed = Bed()
    bed.cut_off_secondary()
    bed.update(adds=[txt("b")])
    bed.settle()
    _restart_primary(bed)
    bed.reconnect_secondary()
    bed.update(adds=[txt("c")])
    bed.settle()
    assert bed.in_sync()
    assert bed.primary.full_transfers == 1


def test_restarted_primary_with_its_serial_reset():
    bed = Bed()
    for label in "bcd":
        bed.update(adds=[txt(label)])
    bed.settle()
    old_serial = bed.secondary.zones[ZONE].serial
    _restart_primary(bed, serial=1)
    serial = bed.update(deletes=["b"], adds=[txt("e")])
    assert serial < old_serial
    bed.settle()
    # The NOTIFY names a serial below the copy's; the copy asks from
    # its own, is sent the whole zone, and follows the primary back.
    assert bed.in_sync()
    bed.update(adds=[txt("f")])
    bed.settle()
    assert bed.in_sync()


def test_serial_reset_is_also_found_by_the_refresh_loop():
    bed = Bed(refresh_interval=30.0)
    for label in "bcd":
        bed.update(adds=[txt(label)])
    bed.settle()
    _restart_primary(bed, serial=1)
    bed.primary.secondaries[ZONE] = []  # no NOTIFY: refresh only
    bed.update(deletes=["c"])
    bed.settle(45.0)
    assert bed.in_sync()


# -- (5) a transfer cut mid-flight --------------------------------------------

def test_transfer_cut_mid_flight_leaves_a_consistent_older_copy():
    bed = Bed()
    bed.update(adds=[txt("warm")])
    bed.settle()
    before = contents(bed.secondary)
    fetched = bed.secondary.transfers_fetched
    one_way = bed.world.network.latency(bed.primary_host.site,
                                        bed.secondary_host.site)
    bed.update(adds=[txt("b"), txt("c")], deletes=["a"])
    # NOTIFY lands after one flight, the request after two; the cut
    # falls between them, so the answer (and every retry) is lost.
    bed.world.run(until=bed.world.now + 1.5 * one_way)
    served = bed.primary.transfers_served
    bed.cut_off_secondary()
    bed.settle()
    assert bed.primary.transfers_served > served  # it was answered
    assert contents(bed.secondary) == before      # ... and never arrived
    assert bed.secondary.transfers_fetched == fetched
    bed.reconnect_secondary()
    bed.update(adds=[txt("d")])
    bed.settle()
    assert bed.in_sync()


def test_a_change_set_is_applied_whole_or_not_at_all():
    zone = Zone(ZONE, primary_host="p")
    zone.add_record(ResourceRecord.from_wire(txt("a")))
    before = zone.to_wire()
    bad = {"serial": zone.serial + 1,
           "changes": [[True, txt("b")],
                       [True, dict(txt("c"), name="c.elsewhere.org")]]}
    try:
        zone.apply_delta(bad)
    except Exception:  # noqa: BLE001 - DnsError; what matters is below
        pass
    else:
        raise AssertionError("an out-of-zone record was applied")
    assert zone.to_wire() == before
    assert zone.deltas_since(before["serial"]) == []


# -- (6) delete-then-add of one name ------------------------------------------

def test_delete_then_add_of_one_name_inside_one_update():
    bed = Bed()
    bed.update(adds=[txt("a", "v2")], deletes=["a"])
    bed.settle()
    assert bed.in_sync()
    rrset = bed.secondary.zones[ZONE].rrset("a." + ZONE, RRType.TXT)
    assert [record.data for record in rrset] == ["v2"]


def test_delete_then_add_of_one_name_across_two_updates():
    bed = Bed()
    bed.cut_off_secondary()
    bed.update(deletes=["a"])
    bed.settle()
    bed.reconnect_secondary()
    bed.update(adds=[txt("a", "v3")])
    bed.settle()
    assert bed.in_sync()
    rrset = bed.secondary.zones[ZONE].rrset("a." + ZONE, RRType.TXT)
    assert [record.data for record in rrset] == ["v3"]
    assert bed.primary.full_transfers == 1


def test_add_then_delete_across_two_updates_leaves_no_name_behind():
    bed = Bed()
    bed.update(adds=[txt("b")])
    bed.update(deletes=["b"])
    bed.settle()
    assert bed.in_sync()
    secondary_zone = bed.secondary.zones[ZONE]
    assert secondary_zone.answer("b." + ZONE, RRType.TXT).rcode == "NXDOMAIN"


# -- (7) a zone mutated directly ----------------------------------------------

def test_direct_mutation_and_bump_serial_reach_the_secondary_as_a_delta():
    bed = Bed(refresh_interval=30.0)
    bed.update(adds=[txt("warm")])
    bed.settle()
    sent = bed.primary.records_sent
    zone = bed.primary.zones[ZONE]
    zone.add_record(ResourceRecord.from_wire(txt("direct")))
    zone.remove_rrset("a." + ZONE, RRType.TXT)
    zone.bump_serial()  # no NOTIFY: nobody told the server
    bed.settle(45.0)
    assert bed.in_sync()
    assert bed.primary.records_sent - sent == 2
    assert bed.primary.full_transfers == 1


# -- (8) any updates, any losses ----------------------------------------------

OPS = st.lists(
    st.tuples(st.sampled_from(["add", "delete"]), st.sampled_from("abc"),
              st.sampled_from(["v1", "v2"])),
    min_size=1, max_size=3)


#: Time between one update and the next: none, fractions of the
#: NOTIFY -> request -> answer round (three flights of 150 to 225 ms),
#: or long enough for every retry to have been spent.
GAPS = [0.0, 0.1, 0.2, 0.4, 0.8, CALL_GIVES_UP]


def _run_lossy(updates, doomed=(), late=(), by_refresh=False, seed=5,
               journal_depth=JOURNAL_DEPTH, doubled=()):
    """``updates`` is a list of (ops, gap after them).  The replication
    datagrams — whatever passes between primary and secondary, in
    either direction: NOTIFYs, transfer requests, answers and the
    retries of each — meet the fates ``doomed``, ``late`` and
    ``doubled`` by send order; the updates themselves always
    arrive."""
    # Links jitter by up to half their latency.  A short journal makes
    # full transfers part of the mix.
    with mock.patch.object(journal_module, "JOURNAL_DEPTH", journal_depth):
        bed = Bed(seed=seed, refresh_interval=30.0 if by_refresh else None,
                  jitter=0.5)
    dropper = DatagramMeddler(bed.world.network, bed.secondary_host.site,
                              doomed, late, doubled)
    serial = bed.secondary.zones[ZONE].serial
    for ops, gap in updates:
        bed.update(adds=[txt(label, data) for kind, label, data in ops
                         if kind == "add"],
                   deletes=[label for kind, label, _data in ops
                            if kind == "delete"])
        bed.settle(gap)
        # A late answer never takes the copy back.
        assert bed.secondary.zones[ZONE].serial >= serial
        serial = bed.secondary.zones[ZONE].serial
    dropper.stop()
    if by_refresh:
        bed.primary.secondaries[ZONE] = []
        bed.settle(30.0 + CALL_GIVES_UP)
    else:
        bed.update(adds=[txt("final")])
        bed.settle()
    assert contents(bed.secondary) == contents(bed.primary)
    return bed


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(updates=st.lists(st.tuples(OPS, st.sampled_from(GAPS)),
                        min_size=1, max_size=6),
       doomed=st.sets(st.integers(0, 30), max_size=12),
       late=st.sets(st.integers(0, 30), max_size=12),
       doubled=st.sets(st.integers(0, 30), max_size=6),
       by_refresh=st.booleans(), seed=st.integers(0, 7),
       journal_depth=st.sampled_from([1, 2, JOURNAL_DEPTH]))
def test_any_updates_and_any_losses_then_one_delivered_round_converge(
        updates, doomed, late, doubled, by_refresh, seed, journal_depth):
    _run_lossy(updates, doomed, late, by_refresh, seed, journal_depth,
               doubled)


# Counterexamples to plausible wrong secondaries (one that replays
# answers in arrival order, one that installs any whole zone it is
# sent), found while checking the property can tell them from the real
# one; kept as plain tests.

def test_regression_overtaken_answer_is_not_replayed():
    # The answer carrying "add b" is held back and arrives after the
    # one carrying "add b, delete b": replayed in arrival order it
    # would put b back under the newer serial.
    bed = _run_lossy([([("add", "b", "v1")], 0.8),
                      ([("delete", "b", "v1")], CALL_GIVES_UP)], late={2})
    assert not bed.secondary.zones[ZONE].rrset("b." + ZONE, RRType.TXT)


def test_regression_late_whole_zone_does_not_take_the_copy_back():
    # With a one-deep journal the held-back answers are whole zones;
    # the older one arrives last and must be dropped, not installed
    # (the serial check inside ``_run_lossy`` is what fails otherwise).
    _run_lossy([([("add", "a", "v1")], 0.0), ([("add", "a", "v1")], 0.4)],
               late={0, 3}, seed=0, journal_depth=1)


def test_regression_every_replication_datagram_of_three_updates_lost():
    # Nothing but the updates gets through until the final round,
    # which then carries every change set in one answer.
    updates = [([("add", "b", "v1")], CALL_GIVES_UP),
               ([("delete", "a", "v1")], CALL_GIVES_UP),
               ([("add", "a", "v2"), ("delete", "b", "v1")], CALL_GIVES_UP)]
    for by_refresh in (False, True):
        bed = _run_lossy(updates, doomed=range(200), by_refresh=by_refresh)
        assert bed.primary.full_transfers == 1
