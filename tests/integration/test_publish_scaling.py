"""Publishing N packages costs the name service N records, not N².

The exact, wall-clock-free form of "publish is O(N)": a corpus is
published through :class:`GdnDeployment` + :class:`ModeratorTool` at
two sizes and what the GDN Zone's servers shipped is read from their
counters and from the datagrams themselves.  While
every committed update made each secondary pull the whole zone, 128
publishes shipped 8 000-odd records to each secondary and the bytes
per publish tripled from 32 packages to 128; this test is what would
have said so.
"""


import pytest

from repro.gdn.deployment import GdnDeployment
from repro.gdn.scenario import ReplicationScenario

#: Records one publish adds to the GDN Zone (the name's TXT record).
RECORDS_PER_PUBLISH = 1


def _total(gdn, counter):
    """A server counter summed over the GDN Zone's servers."""
    return sum(getattr(server, counter)
               for server in [gdn.dns_primary, *gdn.dns_secondaries])


def _dns_bytes(world):
    """A tally, kept from now on, of the bytes of every datagram sent
    to a GDN Zone server: updates, NOTIFYs and their replies, transfer
    requests and answers, queries."""
    tally = {"bytes": 0}
    deliver = world.network.deliver

    def metered(src_site, dst_site, dst_host, size, deliver_fn, **options):
        if dst_host.startswith("dns-gdn-"):
            tally["bytes"] += size
        return deliver(src_site, dst_site, dst_host, size, deliver_fn,
                       **options)

    world.network.deliver = metered
    return tally


def _publish(packages):
    gdn = GdnDeployment.from_spec({
        "topology": [3, 1, 2, 2], "seed": 16, "secure": False,
        "gos": {"gos-%d" % index: "r%d/c0/m0/s0" % index
                for index in range(3)},
        "moderators": {"mod": "r0/c0/m0/s1"}})
    moderator = gdn.moderators["mod"]
    tally = _dns_bytes(gdn.world)

    def publish():
        for rank in range(packages):
            yield from moderator.create_package(
                "/apps/scaling/pkg%03d" % rank, {"file": b"x" * 512},
                ReplicationScenario.single_server("gos-%d" % (rank % 3)))

    gdn.run(publish(), host=moderator.host)
    gdn.settle(5.0)
    return gdn, tally["bytes"]


@pytest.fixture(scope="module")
def published():
    return {packages: _publish(packages) for packages in (32, 128)}


@pytest.mark.parametrize("packages", [32, 128])
def test_secondaries_are_sent_each_publish_once(published, packages):
    gdn, _dns_bytes_moved = published[packages]
    secondaries = len(gdn.dns_secondaries)
    assert secondaries == 2
    zone = gdn.dns_primary.zones[gdn.zone]
    records = len(zone.to_wire()["records"])
    assert records == packages * RECORDS_PER_PUBLISH
    for secondary in gdn.dns_secondaries:
        copy = secondary.zones[gdn.zone]
        assert (copy.serial, len(copy.to_wire()["records"])) == \
            (zone.serial, records)
    # One publish is one update, and each secondary applies exactly
    # the records of that update — however the NOTIFYs and transfers
    # interleaved, and whatever the zone held by then.
    per_update = RECORDS_PER_PUBLISH * secondaries
    assert _total(gdn, "updates_applied") == packages
    assert _total(gdn, "records_applied") == packages * per_update
    # Publishes outpace the NOTIFY -> request -> answer round, so an
    # answer may also carry the change set committed while it was
    # asked for (its own NOTIFY then finds it applied): more than one
    # update's records per answer, never a multiple that grows.
    sent = _total(gdn, "records_sent")
    assert packages * per_update <= sent < 2 * packages * per_update
    # The whole zone crossed the wire once per secondary: the initial
    # sync, of a then-empty zone.
    assert _total(gdn, "full_transfers") == secondaries
    assert gdn.dns_primary.full_transfers == secondaries


def test_records_shipped_per_publish_do_not_depend_on_the_corpus(published):
    per_publish = {packages: _total(gdn, "records_sent") / packages
                   for packages, (gdn, _dns_bytes_moved) in published.items()}
    assert per_publish[128] == pytest.approx(per_publish[32], rel=0.05)


def test_dns_bytes_per_publish_do_not_depend_on_the_corpus(published):
    per_publish = {packages: moved / packages
                   for packages, (_gdn, moved) in published.items()}
    assert per_publish[128] == pytest.approx(per_publish[32], rel=0.05)
