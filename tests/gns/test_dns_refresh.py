"""Tests for secondary zone refresh (SOA-style periodic transfer)."""

from repro.gns.dns.records import ResourceRecord, RRType
from repro.gns.dns.server import DNS_PORT, AuthoritativeServer
from repro.gns.dns.zone import Zone
from repro.sim.topology import Level, Topology
from repro.sim.world import World


def _build(world, refresh_interval=None, names=("a",)):
    primary_host = world.host("dns-primary", "r0/c0/m0/s0")
    primary = AuthoritativeServer(world, primary_host)
    zone = Zone("example.nl", primary_host="dns-primary")
    for name in names:
        zone.add_record(ResourceRecord("%s.example.nl" % name, RRType.TXT,
                                       60, "v1"))
    # No secondaries wired for NOTIFY: refresh is the only channel.
    primary.add_primary_zone(zone, secondaries=[])
    primary.start()

    secondary_host = world.host("dns-secondary", "r1/c0/m0/s0")
    secondary = AuthoritativeServer(world, secondary_host,
                                    refresh_interval=refresh_interval)
    secondary.add_secondary_zone("example.nl", ("dns-primary", DNS_PORT))
    secondary.start()
    world.run_until(secondary_host.spawn(secondary.initial_transfers()),
                    limit=1e6)
    return primary, secondary


def test_refresh_picks_up_missed_updates():
    world = World(topology=Topology.balanced(2, 1, 1, 1), seed=8)
    primary, secondary = _build(world, refresh_interval=50.0)
    # Mutate the primary directly (no NOTIFY is sent: no secondaries
    # are registered for it).
    zone = primary.zones["example.nl"]
    zone.add_record(ResourceRecord("b.example.nl", RRType.TXT, 60, "v2"))
    zone.bump_serial()
    assert not secondary.zones["example.nl"].rrset("b.example.nl",
                                                   RRType.TXT)
    world.run(until=world.now + 120.0)
    assert secondary.zones["example.nl"].rrset("b.example.nl", RRType.TXT)
    assert secondary.transfers_fetched >= 1


def _idle_refresh_cost(zone_size):
    """(bytes on the wire, records shipped, transfers answered) over
    five idle refresh rounds of a ``zone_size``-name zone."""
    world = World(topology=Topology.balanced(2, 1, 1, 1), seed=8)
    primary, secondary = _build(
        world, refresh_interval=20.0,
        names=["n%d" % index for index in range(zone_size)])
    assert len(secondary.zones["example.nl"].to_wire()["records"]) \
        == zone_size
    meter = world.network.meter
    bytes_before, sent_before = meter.total_bytes, primary.records_sent
    served_before = primary.transfers_served
    fetched_before = secondary.transfers_fetched
    world.run(until=world.now + 110.0)
    # Five rounds asked; none moved the copy.
    assert primary.transfers_served - served_before == 5
    assert secondary.transfers_fetched == fetched_before
    assert primary.full_transfers == 1  # the initial sync, still
    return (meter.total_bytes - bytes_before,
            primary.records_sent - sent_before)


def test_refresh_is_cheap_when_unchanged():
    small, large = _idle_refresh_cost(2), _idle_refresh_cost(400)
    # An up-to-date copy is sent an empty answer: not one record, and
    # the same bytes whether the zone holds two names or four hundred.
    assert small[1] == large[1] == 0
    assert small[0] == large[0]
    assert small[0] < 5 * 400  # a few hundred bytes a round trip


def test_no_refresh_without_interval():
    world = World(topology=Topology.balanced(2, 1, 1, 1), seed=8)
    primary, secondary = _build(world, refresh_interval=None)
    zone = primary.zones["example.nl"]
    zone.add_record(ResourceRecord("c.example.nl", RRType.TXT, 60, "v3"))
    zone.bump_serial()
    world.run(until=world.now + 200.0)
    assert not secondary.zones["example.nl"].rrset("c.example.nl",
                                                   RRType.TXT)


def test_stop_ends_the_refresh_loop():
    # Regression: stop() left the refresh loop waking every interval
    # for ever, each wake raising (and swallowing) AttributeError on
    # the cleared client.
    world = World(topology=Topology.balanced(2, 1, 1, 1), seed=8)
    primary, secondary = _build(world, refresh_interval=20.0)
    host = secondary.host
    served = primary.transfers_served
    secondary.stop()
    world.run(until=world.now + 200.0)
    assert primary.transfers_served == served
    assert not host._processes
    assert world.sim.heap_size == 0


def test_stop_start_cycles_leave_nothing_behind():
    world = World(topology=Topology.balanced(2, 1, 1, 1), seed=8)
    primary, secondary = _build(world, refresh_interval=20.0)
    host = secondary.host
    secondary.stop()
    for _cycle in range(5):
        secondary.start()
        secondary.stop()
    world.run(until=world.now + 100.0)
    assert not host._processes
    assert world.sim.heap_size == 0
    # Started once more, it refreshes again.
    served = primary.transfers_served
    secondary.start()
    world.run(until=world.now + 50.0)
    assert primary.transfers_served - served == 2


def test_a_server_stops_quietly_before_and_after_it_started():
    world = World(topology=Topology.balanced(2, 1, 1, 1), seed=8)
    server = AuthoritativeServer(world, world.host("dns", "r0/c0/m0/s0"))
    server.stop()
    server.start()
    server.stop()
