"""Tests for GDN-proxy servers on user machines (§4)."""

import pytest

from repro.gdn.browser import Browser
from repro.gdn.deployment import GdnDeployment, standard_spec
from repro.gdn.scenario import ReplicationScenario


@pytest.fixture(scope="module")
def gdn():
    deployment = GdnDeployment.from_spec({
        **standard_spec(2, 2, 1, 2), "seed": 303, "secure": True,
        "moderators": {"mod": "r0/c0/m0/s1"}})
    moderator = deployment.moderators["mod"]
    oid = deployment.run(moderator.create_package(
        "/apps/net/Lynx", {"README": b"lynx browser", "bin": b"\x01" * 4096},
        ReplicationScenario.master_slave("gos-r0-0", ["gos-r1-0"],
                                         cache_ttl=300.0)),
        host=moderator.host)
    deployment.settle(5.0)
    return deployment, oid


def test_proxy_serves_local_browser(gdn):
    deployment, _oid = gdn
    proxy = deployment.add_proxy("user-proxy", "r1/c1/m0/s0")
    # The local browser talks plain HTTP to the proxy on its own
    # machine (Figure 4: securing hop (4) is "a local administrative
    # matter").
    browser = Browser(deployment.world,
                      deployment.world.host("proxy-user", "r1/c1/m0/s0"),
                      proxy, channel_wrapper=None)

    def surf():
        page = yield from browser.get("/gdn/apps/net/Lynx")
        blob = yield from browser.download("/apps/net/Lynx", "bin")
        return page, blob

    page, blob = deployment.run(surf(), host=browser.host)
    assert page.ok
    assert "README" in page.body
    assert blob.ok
    assert blob.body == b"\x01" * 4096


def test_proxy_cache_serves_repeats_locally(gdn):
    deployment, _oid = gdn
    proxy = deployment.add_proxy("user-proxy-2", "r0/c1/m0/s1")
    browser = Browser(deployment.world,
                      deployment.world.host("proxy-user-2", "r0/c1/m0/s1"),
                      proxy)

    def surf():
        first = yield from browser.download("/apps/net/Lynx", "README")
        second = yield from browser.download("/apps/net/Lynx", "README")
        return first, second

    first, second = deployment.run(surf(), host=browser.host)
    assert first.ok and second.ok
    # The second hit executes against the proxy's cached copy: no
    # network beyond the user's own site, so it is much faster.
    assert second.elapsed < first.elapsed / 2


def test_proxy_cannot_push_writes(gdn):
    """A proxy is an insecure user machine: object servers must not
    accept state updates from it (§6.1)."""
    deployment, oid = gdn
    proxy = deployment.add_proxy("user-proxy-3", "r1/c0/m0/s1")

    def attempt():
        lr = yield from proxy.runtime.bind(oid)
        try:
            yield from lr.invoke("addFile", {"path": "evil",
                                             "data": b"trojan"})
        except Exception as exc:  # noqa: BLE001
            return type(exc).__name__
        return "accepted"

    outcome = deployment.run(attempt(), host=proxy.host)
    assert outcome != "accepted"
    master = deployment.object_servers["gos-r0-0"]
    files = [e["path"] for e in
             master.replicas[oid.hex].semantics.listContents()]
    assert "evil" not in files
