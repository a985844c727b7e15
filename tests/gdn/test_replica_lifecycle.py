"""A moderator adapts a package's scenario (§3.1) and the GLS follows.

``ModeratorTool.add_replica`` is one more "bind to DSO, create replica"
command; the new replica registers its contact address, so lookups in
its region stop crossing the world.  ``drop_replica`` removes it again:
its address leaves every directory node, the tree of forwarding
pointers stays consistent, and lookups from that region walk back to
the master.
"""

import pytest

from repro.gdn.deployment import GdnDeployment
from repro.gdn.moderator import ModerationError
from repro.gdn.scenario import ReplicationScenario
from repro.gls.service import GlsClient
from repro.sim.topology import Topology
from tests.util import check_pointer_invariant

PACKAGE = "/apps/editors/Vim"
FILES = {"README": b"vim " * 64}


def test_add_and_drop_a_replica_moves_lookups_in_and_out_of_a_region():
    gdn = GdnDeployment(topology=Topology.balanced(2, 2, 2, 2), seed=5,
                        secure=False)
    gdn.standard_fleet(gos_per_region=1)
    gdn.initial_sync()
    moderator = gdn.add_moderator("mod", "r0/c0/m0/s1")
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
    gdn = GdnDeployment(topology=Topology.balanced(2, 2, 2, 2), seed=5)
    gdn.standard_fleet(gos_per_region=1)
    gdn.initial_sync()
    moderator = gdn.add_moderator("mod", "r0/c0/m0/s1")
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
