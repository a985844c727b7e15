"""A moderator adapts a package's scenario (§3.1) and the GLS follows.

``ModeratorTool.add_replica`` is one more "bind to DSO, create replica"
command; the new replica registers its contact address, so lookups in
its region stop crossing the world.  ``drop_replica`` removes it again:
its address leaves every directory node, the tree of forwarding
pointers stays consistent, and lookups from that region walk back to
the master.
"""

import pytest

from repro.gdn.deployment import GdnDeployment, standard_spec
from repro.gdn.moderator import ModerationError
from repro.gdn.scenario import ReplicationScenario
from repro.gls.service import GlsClient
from tests.util import check_pointer_invariant

PACKAGE = "/apps/editors/Vim"
FILES = {"README": b"vim " * 64}


def _deployment(**options):
    """The standard layout on a 2x2x2x2 world, and a moderator."""
    gdn = GdnDeployment.from_spec({
        **standard_spec(2, 2, 2, 2), "seed": 5,
        "moderators": {"mod": "r0/c0/m0/s1"}, **options})
    return gdn, gdn.moderators["mod"]


def test_add_and_drop_a_replica_moves_lookups_in_and_out_of_a_region():
    gdn, moderator = _deployment(secure=False)
    oid = gdn.run(moderator.create_package(
        PACKAGE, FILES, ReplicationScenario.master_slave("gos-r0-0", [])),
        host=moderator.host)
    gdn.settle(2.0)
    master_site = gdn.object_servers["gos-r0-0"].host.site.path
    added = gdn.object_servers["gos-r1-0"].host
    tree = gdn.gls
    user = gdn.world.host("user-r1", "r1/c1/m1/s1")
    gls = GlsClient(gdn.world, user, tree)

    def lookup():
        return gdn.run(gls.lookup_detailed(oid.hex), host=user)

    def hosts_everywhere():
        return {wire["host"] for subnodes in tree.nodes.values()
                for node in subnodes
                for wire in (node.records[oid.hex].contact_addresses
                             if oid.hex in node.records else ())}

    before = lookup()
    assert before["found"] == master_site

    gdn.run(moderator.add_replica(PACKAGE, "gos-r1-0"), host=moderator.host)
    gdn.settle(5.0)
    near = lookup()
    assert near["found"] == added.site.path
    assert near["found"].startswith("r1/")
    assert [wire["host"] for wire in near["cas"]] == [added.name]
    assert near["hops"] < before["hops"]
    check_pointer_invariant(tree)
    assert moderator.catalog[PACKAGE]["scenario"].slave_gos == ["gos-r1-0"]

    gdn.run(moderator.drop_replica(PACKAGE, "gos-r1-0"), host=moderator.host)
    gdn.settle(5.0)
    assert added.name not in hosts_everywhere()
    assert hosts_everywhere() == {"gos-r0-0"}
    check_pointer_invariant(tree)
    after = lookup()
    assert (after["found"], after["hops"]) == (master_site, before["hops"])
    assert moderator.catalog[PACKAGE]["scenario"].slave_gos == []


def test_a_moderator_places_replicas_on_object_servers_added_after_it():
    gdn, moderator = _deployment()
    late = gdn.add_gos("gos-late", "r1/c1/m0/s0")
    oid = gdn.run(moderator.create_package(
        PACKAGE, FILES, ReplicationScenario.master_slave("gos-r0-0", [])),
        host=moderator.host)
    gdn.run(moderator.add_replica(PACKAGE, "gos-late"), host=moderator.host)
    gdn.settle(2.0)
    assert oid.hex in late.replicas
    assert moderator.catalog[PACKAGE]["scenario"].slave_gos == ["gos-late"]
    with pytest.raises(ModerationError, match="unknown object server"):
        gdn.run(moderator.add_replica(PACKAGE, "gos-nowhere"),
                host=moderator.host)


def test_dropping_a_replica_invalidates_its_hosts_lookup_cache_at_once():
    # The dropped slave's GOS unregisters through its host's lookup
    # cache, which the colocated HTTPD shares: the cached binding to
    # the dropped replica goes with the unregister, not after its TTL.
    gdn, moderator = _deployment(secure=False, gls_cache={})
    oid = gdn.run(moderator.create_package(
        PACKAGE, FILES,
        ReplicationScenario.master_slave("gos-r0-0", ["gos-r1-0"])),
        host=moderator.host)
    gdn.settle(2.0)
    slave = gdn.object_servers["gos-r1-0"].host
    cache = gdn.lookup_caches[slave.name]

    def hosts():
        return [wire["host"] for wire in
                gdn.run(cache.lookup(oid.hex), host=slave)]

    assert hosts() == [slave.name]
    expires = gdn.world.now + cache.ttl
    invalidations = cache.invalidations
    gdn.run(moderator.drop_replica(PACKAGE, "gos-r1-0"), host=moderator.host)
    assert cache.invalidations == invalidations + 1
    assert oid.hex not in cache._entries
    assert gdn.world.now < expires
    misses = cache.misses
    assert hosts() == ["gos-r0-0"]
    assert cache.misses == misses + 1


def test_a_master_drops_a_slave_whose_leave_was_lost():
    # Kept beside the crash-point sweep: a partition.
    # The master's site is cut off while drop_replica runs, so the
    # dropped slave's leave never arrives.  Its object server answers
    # the next push with "no replica here", and the master drops it
    # instead of shipping every later write across the world to it.
    gdn, moderator = _deployment(secure=False)
    oid = gdn.run(moderator.create_package(
        PACKAGE, FILES,
        ReplicationScenario.master_slave("gos-r0-0", ["gos-r1-0"])),
        host=moderator.host)
    gdn.settle(2.0)
    master_gos = gdn.object_servers["gos-r0-0"]
    master = master_gos.replicas[oid.hex].replication
    network = gdn.world.network
    network.partition_domain(master_gos.host.site)
    gdn.run(moderator.drop_replica(PACKAGE, "gos-r1-0"), host=moderator.host)
    gdn.settle(30.0)
    network.heal_domain(master_gos.host.site)
    gdn.settle(5.0)
    assert [address.host_name for address in master.slaves.values()] \
        == ["gos-r1-0"]  # the leave was lost

    failures = []
    for index in range(3):
        gdn.run(moderator.update_package(
            PACKAGE, add_files={"NEWS": b"%d" % index}), host=moderator.host)
        gdn.settle(2.0)
        failures.append(master.push_failures)
    assert failures == [1, 1, 1]
    assert master.slaves == {}
    # The master's checkpoint no longer carries the dead slave either.
    master_gos.host.crash()
    master_gos.host.restart()
    master_gos = gdn.object_servers[master_gos.host.name]
    gdn.world.run_until(master_gos.host.recovery)
    assert master_gos.replicas[oid.hex].replication.slaves == {}
