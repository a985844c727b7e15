"""Full-stack tests for the §2 maintainer role and §8 search/versioning."""

import pytest

from repro.gdn.deployment import GdnDeployment, standard_spec
from repro.gdn.maintainer import MaintenanceError
from repro.gdn.scenario import ReplicationScenario


@pytest.fixture(scope="module")
def gdn():
    deployment = GdnDeployment.from_spec({
        **standard_spec(2, 2, 1, 2), "seed": 202, "secure": True,
        "moderators": {"mod": "r0/c0/m0/s1"}})
    moderator = deployment.moderators["mod"]

    def publish():
        gimp = yield from moderator.create_package(
            "/apps/graphics/Gimp", {"README": b"gimp v1"},
            ReplicationScenario.master_slave("gos-r0-0", ["gos-r1-0"]),
            attributes={"license": "gpl"})
        tetex = yield from moderator.create_package(
            "/apps/typesetting/teTeX", {"README": b"tetex v1"},
            ReplicationScenario.single_server("gos-r0-0"),
            attributes={"license": "lppl"})
        return gimp, tetex

    gimp_oid, tetex_oid = deployment.run(publish(), host=moderator.host)
    deployment.settle(5.0)
    return deployment, moderator, gimp_oid, tetex_oid


def test_maintainer_can_update_own_package(gdn):
    deployment, _moderator, gimp_oid, _tetex = gdn
    maintainer = deployment.add_maintainer("wilber", "r1/c0/m0/s1",
                                           maintains=[gimp_oid.hex])

    version = deployment.run(maintainer.update_contents(
        "/apps/graphics/Gimp", add_files={"NEWS": b"bugfixes"}),
        host=maintainer.host)
    assert version > 0
    deployment.settle(5.0)
    master = deployment.object_servers["gos-r0-0"]
    assert (master.replicas[gimp_oid.hex].semantics
            .getFileContents("NEWS") == b"bugfixes")


def test_maintainer_cannot_touch_other_packages(gdn):
    deployment, _moderator, gimp_oid, _tetex = gdn
    maintainer = deployment.add_maintainer("wilber2", "r1/c0/m0/s1",
                                           maintains=[gimp_oid.hex])

    def attempt():
        try:
            yield from maintainer.update_contents(
                "/apps/typesetting/teTeX", add_files={"evil": b"x"})
        except MaintenanceError:
            return "refused"
        return "accepted"

    assert deployment.run(attempt(), host=maintainer.host) == "refused"
    tetex_gos = deployment.object_servers["gos-r0-0"]
    _tetex_oid = gdn[3]
    semantics = tetex_gos.replicas[_tetex_oid.hex].semantics
    assert "evil" not in [e["path"] for e in semantics.listContents()]


def test_grant_extends_maintainer_rights(gdn):
    deployment, _moderator, _gimp, tetex_oid = gdn
    maintainer = deployment.add_maintainer("newcomer", "r0/c1/m0/s0")

    def attempt():
        try:
            yield from maintainer.update_contents(
                "/apps/typesetting/teTeX", add_files={"PATCH": b"p1"})
            return "accepted"
        except MaintenanceError:
            return "refused"

    assert deployment.run(attempt(), host=maintainer.host) == "refused"
    deployment.grant_maintainer("newcomer", tetex_oid.hex)
    assert deployment.run(attempt(), host=maintainer.host) == "accepted"


def test_maintainer_restores_old_version(gdn):
    deployment, _moderator, gimp_oid, _tetex = gdn
    maintainer = deployment.add_maintainer("wilber3", "r0/c0/m0/s0",
                                           maintains=[gimp_oid.hex])

    def botch_and_restore():
        yield from maintainer.update_contents(
            "/apps/graphics/Gimp", add_files={"README": b"BOTCHED"})
        master = deployment.object_servers["gos-r0-0"]
        semantics = master.replicas[gimp_oid.hex].semantics
        history = semantics.getHistory()
        botch_version = history[-1]["version"]
        yield from maintainer.restore_file("/apps/graphics/Gimp",
                                           "README", botch_version)
        return semantics.getFileContents("README")

    contents = deployment.run(botch_and_restore(), host=maintainer.host)
    assert contents == b"gimp v1"


def test_search_through_httpd(gdn):
    deployment, _moderator, _gimp, _tetex = gdn
    browser = deployment.add_browser("searcher", "r1/c1/m0/s1")

    def search():
        by_category = yield from browser.get(
            "/gdn-search?category=graphics")
        by_license = yield from browser.get("/gdn-search?license=lppl")
        no_match = yield from browser.get("/gdn-search?category=games")
        return by_category, by_license, no_match

    by_category, by_license, no_match = deployment.run(
        search(), host=browser.host)
    assert by_category.ok
    assert "/gdn/apps/graphics/gimp" in by_category.body.lower()
    assert "tetex" in by_license.body.lower()
    assert "0 package(s)" in no_match.body


def test_search_result_is_downloadable(gdn):
    """Search → name → GNS → GLS → bind: the full §5 pipeline."""
    deployment, _moderator, _gimp, _tetex = gdn
    browser = deployment.add_browser("search-dl", "r0/c1/m0/s1")

    def search_then_download():
        import re
        page = yield from browser.get("/gdn-search?name=gimp")
        match = re.search(r'href="(/gdn[^"]+)"', page.body)
        assert match, page.body
        listing = yield from browser.get(match.group(1))
        return listing

    listing = deployment.run(search_then_download(), host=browser.host)
    assert listing.ok
    assert "README" in listing.body


def test_removed_package_leaves_search_index(gdn):
    deployment, moderator, _gimp, _tetex = gdn

    def lifecycle():
        yield from moderator.create_package(
            "/apps/games/Ephemeral", {"f": b"x"},
            ReplicationScenario.single_server("gos-r0-0"))
        yield from moderator.remove_package("/apps/games/Ephemeral")

    deployment.run(lifecycle(), host=moderator.host)
    browser = deployment.add_browser("search-gone", "r0/c0/m0/s0")

    page = deployment.run(browser.get("/gdn-search?category=games"),
                          host=browser.host)
    assert "0 package(s)" in page.body
