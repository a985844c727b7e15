"""What the moderator tool refuses, and what it leaves behind."""

import pytest

from repro.core.ids import ObjectId
from repro.gdn.deployment import GdnDeployment, standard_spec
from repro.gdn.moderator import ModerationError
from repro.gdn.scenario import ReplicationScenario
from repro.sim import rpc

REPLICATED = "/apps/editors/vim"
SINGLE = "/apps/editors/ed"


@pytest.fixture
def gdn():
    """Two moderators; one manages a master/slave package and a
    client/server one.  Built for each test, so that each test reaches
    the commands it depends on (the mutant sweep selects by reach)."""
    gdn = GdnDeployment.from_spec({
        **standard_spec(3, 1, 1, 2), "seed": 5, "secure": False,
        "moderators": {"mod": "r0/c0/m0/s1", "other": "r1/c0/m0/s1"}})
    moderator = gdn.moderators["mod"]
    gdn.run(moderator.create_package(
        REPLICATED, {"README": b"vim"},
        ReplicationScenario.master_slave("gos-r0-0", ["gos-r1-0"]),
        attributes={"license": "charityware"}), host=moderator.host)
    gdn.run(moderator.create_package(
        SINGLE, {"README": b"ed"},
        ReplicationScenario.single_server("gos-r0-0")), host=moderator.host)
    gdn.settle(5.0)
    return gdn


def _refusal(gdn, command) -> str:
    moderator = gdn.moderators["mod"]

    def attempt():
        try:
            yield from command(moderator)
        except ModerationError as exc:
            return str(exc)

    return gdn.run(attempt(), host=moderator.host)


@pytest.mark.parametrize("command, refusal", [
    (lambda tool: tool.create_package(
        REPLICATED, {}, ReplicationScenario.single_server("gos-r0-0")),
     "package '/apps/editors/vim' already exists"),
    (lambda tool: tool.add_replica("/apps/nope", "gos-r2-0"),
     "this tool does not manage '/apps/nope'"),
    (lambda tool: tool.add_replica(SINGLE, "gos-r2-0"),
     "client/server objects hold a single copy; republish with "
     "master/slave to replicate '/apps/editors/ed'"),
    (lambda tool: tool.add_replica(REPLICATED, "gos-r1-0"),
     "gos-r1-0 already hosts '/apps/editors/vim'"),
    (lambda tool: tool.add_replica(REPLICATED, "gos-r0-0"),
     "gos-r0-0 already hosts '/apps/editors/vim'"),
    (lambda tool: tool.drop_replica("/apps/nope", "gos-r1-0"),
     "this tool does not manage '/apps/nope'"),
    (lambda tool: tool.drop_replica(REPLICATED, "gos-r0-0"),
     "gos-r0-0 hosts no removable replica of '/apps/editors/vim'"),
    (lambda tool: tool.remove_package("/apps/nope"),
     "this tool does not manage '/apps/nope'"),
], ids=["create-twice", "add-unmanaged", "add-client-server",
        "add-on-a-slave", "add-on-the-master", "drop-unmanaged",
        "drop-the-master", "remove-unmanaged"])
def test_a_refused_command_changes_nothing(gdn, command, refusal):
    moderator = gdn.moderators["mod"]
    scenario = moderator.catalog[REPLICATED]["scenario"]
    assert _refusal(gdn, command) == refusal
    assert (scenario.master_gos, scenario.slave_gos) \
        == ("gos-r0-0", ["gos-r1-0"])
    assert sorted(moderator.catalog) == [SINGLE, REPLICATED]


def test_a_package_is_indexed_by_its_given_attributes(gdn):
    user = gdn.world.host("searcher", "r2/c0/m0/s0")
    reply = gdn.run(rpc.call(user, gdn.search.host, gdn.search.port,
                             "search", {"query": {"license": "charityware"}}),
                    host=user)
    assert reply["matches"] == [REPLICATED]


def test_another_moderator_updates_a_package_it_finds_by_name(gdn):
    other = gdn.moderators["other"]
    assert REPLICATED not in other.catalog
    version = gdn.run(other.update_package(
        REPLICATED, add_files={"NEWS": b"9.0"}), host=other.host)
    assert version > 0


def test_a_removed_package_leaves_no_binding_and_its_name_is_free():
    gdn = GdnDeployment.from_spec({
        **standard_spec(1, 1, 1, 2), "seed": 5, "secure": False,
        "moderators": {"mod": "r0/c0/m0/s1"}})
    moderator = gdn.moderators["mod"]
    scenario = ReplicationScenario.single_server("gos-r0-0")
    oid = gdn.run(moderator.create_package(SINGLE, {"README": b"ed"},
                                           scenario), host=moderator.host)
    assert oid in moderator.runtime.bound
    gdn.run(moderator.remove_package(SINGLE), host=moderator.host)
    assert oid not in moderator.runtime.bound
    assert SINGLE not in moderator.catalog
    again = gdn.run(moderator.create_package(SINGLE, {"README": b"ed 2"},
                                             scenario), host=moderator.host)
    assert isinstance(again, ObjectId) and again != oid
