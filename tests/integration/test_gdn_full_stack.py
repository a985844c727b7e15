"""Full-stack integration: the whole GDN as in Figure 3.

Every test here builds a complete deployment — DNS + GNS, GLS tree,
object servers, HTTPDs, naming authority, moderator tools, browsers —
and exercises the user-visible flows of the paper: moderators add and
update packages, users download them through their nearest GDN-HTTPD,
replicas keep working through failures, and unauthorized parties are
turned away.
"""

import pytest

from repro.gdn.deployment import GdnDeployment, standard_spec
from repro.gdn.moderator import ModerationError
from repro.gdn.scenario import ReplicationScenario


GIMP_FILES = {
    "README": b"The GIMP, the GNU Image Manipulation Program.",
    "bin/gimp": b"\x7fELF" + b"\x01" * 5000,
    "share/palettes/default.gpl": b"GIMP palette" + b"\x02" * 800,
}


@pytest.fixture(scope="module")
def gdn():
    deployment = GdnDeployment.from_spec({
        **standard_spec(2, 2, 1, 2), "seed": 101, "secure": True,
        "moderators": {"mod-alice": "r0/c0/m0/s1"}})
    moderator = deployment.moderators["mod-alice"]
    scenario = ReplicationScenario.master_slave(
        "gos-r0-0", ["gos-r1-0"], cache_ttl=300.0)
    oid = deployment.run(moderator.create_package(
        "/apps/graphics/Gimp", GIMP_FILES, scenario), host=moderator.host)
    deployment.settle(5.0)
    return deployment, moderator, oid


def test_package_resolvable_through_gns(gdn):
    deployment, _moderator, oid = gdn
    resolver_host = deployment.world.host("checker", "r1/c1/m0/s0")
    gns = deployment._name_service(resolver_host)

    assert deployment.run(gns.resolve("/apps/graphics/Gimp"),
                          host=resolver_host) == oid.hex


def test_replicas_exist_on_both_regions(gdn):
    deployment, _moderator, oid = gdn
    master = deployment.object_servers["gos-r0-0"]
    slave = deployment.object_servers["gos-r1-0"]
    assert oid.hex in master.replicas
    assert oid.hex in slave.replicas
    assert master.replicas[oid.hex].role == "master"
    assert slave.replicas[oid.hex].role == "slave"
    # The slave received the files through join/state-push.
    assert (slave.replicas[oid.hex].semantics.getFileContents("README")
            == GIMP_FILES["README"])


def test_browser_downloads_package_page_and_file(gdn):
    deployment, _moderator, _oid = gdn
    browser = deployment.add_browser("user-1", "r1/c0/m0/s1")

    def surf():
        page = yield from browser.get("/gdn/apps/graphics/Gimp")
        blob = yield from browser.download("/apps/graphics/Gimp",
                                           "bin/gimp")
        return page, blob

    page, blob = deployment.run(surf(), host=browser.host)
    assert page.ok
    assert "bin/gimp" in page.body
    assert blob.ok
    assert blob.body == GIMP_FILES["bin/gimp"]


def test_browser_uses_nearest_access_point(gdn):
    deployment, _moderator, _oid = gdn
    browser = deployment.add_browser("user-near-r0", "r0/c1/m0/s0")
    assert browser.access_point.host.site.path.startswith("r0")


def test_missing_package_is_404(gdn):
    deployment, _moderator, _oid = gdn
    browser = deployment.add_browser("user-404", "r0/c0/m0/s0")

    response = deployment.run(browser.get("/gdn/apps/NoSuchPackage"),
                              host=browser.host)
    assert response.status == 404


def test_missing_file_is_404(gdn):
    deployment, _moderator, _oid = gdn
    browser = deployment.add_browser("user-nofile", "r0/c0/m0/s0")

    response = deployment.run(browser.download("/apps/graphics/Gimp",
                                               "no/such/file"),
                              host=browser.host)
    assert response.status == 404


def test_moderator_updates_propagate(gdn):
    deployment, moderator, oid = gdn

    deployment.run(moderator.update_package(
        "/apps/graphics/Gimp", add_files={"NEWS": b"version 1.2 released"}),
        host=moderator.host)
    deployment.settle(5.0)
    slave = deployment.object_servers["gos-r1-0"]
    assert (slave.replicas[oid.hex].semantics.getFileContents("NEWS")
            == b"version 1.2 released")


def test_download_near_slave_stays_in_region(gdn):
    deployment, _moderator, _oid = gdn
    meter = deployment.world.network.meter
    browser = deployment.add_browser("user-local", "r1/c0/m0/s0")

    def warm_then_measure():
        # Warm the HTTPD cache (may cross regions for the first pull).
        yield from browser.download("/apps/graphics/Gimp", "README")
        before = meter.wide_area_bytes()
        for _ in range(5):
            yield from browser.download("/apps/graphics/Gimp", "README")
        return meter.wide_area_bytes() - before

    wan_bytes = deployment.run(warm_then_measure(), host=browser.host)
    # Repeat downloads are served from the region: no new WAN traffic.
    assert wan_bytes == 0


def test_unauthorized_tool_cannot_create_packages(gdn):
    deployment, _moderator, _oid = gdn
    # A tool whose certificate carries no moderator role.
    impostor = deployment.add_moderator("impostor", "r0/c0/m0/s0")
    deployment.registry.revoke("impostor",
                               __import__("repro.security.acl",
                                          fromlist=["Role"]).Role.MODERATOR)

    def attempt():
        try:
            yield from impostor.create_package(
                "/apps/Trojan", {"payload": b"evil"},
                ReplicationScenario.single_server("gos-r0-0"))
        except ModerationError as exc:
            return str(exc)

    outcome = deployment.run(attempt(), host=impostor.host)
    assert "NotAuthorized" in outcome


def test_anonymous_user_cannot_write_through_gos(gdn):
    deployment, _moderator, oid = gdn
    from repro.core.ids import ObjectId

    user_host = deployment.world.host("writer-user", "r0/c0/m0/s0")
    runtime = deployment._runtime(user_host, gdn_host=False)

    def attempt():
        lr = yield from runtime.bind(ObjectId.from_hex(oid.hex))
        try:
            yield from lr.invoke("addFile", {"path": "evil",
                                             "data": b"trojan"})
        except Exception as exc:  # noqa: BLE001
            return type(exc).__name__
        return "accepted"

    outcome = deployment.run(attempt(), host=user_host)
    assert outcome != "accepted"


def test_package_removal_cleans_name_and_replicas(gdn):
    deployment, moderator, _oid = gdn
    scenario = ReplicationScenario.single_server("gos-r0-0")

    def lifecycle():
        yield from moderator.create_package("/apps/Temporary",
                                            {"f": b"x"}, scenario)
        yield from moderator.remove_package("/apps/Temporary")

    deployment.run(lifecycle(), host=moderator.host)
    browser = deployment.add_browser("user-gone", "r0/c0/m0/s0")

    response = deployment.run(browser.get("/gdn/apps/Temporary"),
                              host=browser.host)
    assert response.status == 404
