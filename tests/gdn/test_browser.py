"""Browser tests: one channel to the access point, however often it breaks."""

from repro.gdn.deployment import GdnDeployment
from repro.gdn.scenario import ReplicationScenario
from repro.sim.failures import FailureInjector

CLIENT_SITE = "r1/c0/m0/s0"
URL = "/gdn/apps/demo/Tool/files/tool.bin"


def _connections(host, peer):
    return [conn for conn in host._connections if conn.remote is peer]


def test_concurrent_gets_across_outages_leave_one_connection():
    gdn = GdnDeployment.from_spec({
        "topology": [2, 2, 1, 2], "seed": 5, "secure": False,
        "gos": {"gos-0": "r0/c0/m0/s0"},
        "httpds": {"ap": {"site": "r0/c0/m0/s1", "cache_ttl": None}},
        "moderators": {"mod": "r0/c1/m0/s0"}})
    access_point = gdn.httpds[0]
    moderator = gdn.moderators["mod"]
    gdn.run(moderator.create_package(
        "/apps/demo/Tool", {"tool.bin": b"x" * 2048},
        ReplicationScenario.single_server("gos-0")), host=moderator.host)
    gdn.settle(5.0)
    browser = gdn.add_browser("user", CLIENT_SITE)
    assert browser.access_point is access_point  # the only one
    world = gdn.world
    start = world.now
    injector = FailureInjector(world)
    for outage_at in (5.0, 25.0):
        injector.partition_domain(world.topology.site(CLIENT_SITE),
                                  start + outage_at, 6.0)
    served_after_outages = []

    def client(offset):
        yield world.sim.timeout(offset)
        while world.now < start + 40.0:
            try:
                response = yield from browser.get(URL, timeout=2.0)
            except Exception:  # noqa: BLE001 - outages fail requests
                yield world.sim.timeout(0.5)
                continue
            assert response.ok
            if world.now > start + 31.0:
                served_after_outages.append(response)
            yield world.sim.timeout(0.2)

    for index in range(4):
        browser.host.spawn(client(0.05 * index))
    gdn.settle(60.0)  # every client done, every close delivered

    assert served_after_outages
    assert len(_connections(browser.host, access_point.host)) == 1
    assert len(_connections(access_point.host, browser.host)) == 1
    browser.close()
    gdn.settle(5.0)
    assert _connections(browser.host, access_point.host) == []
    assert _connections(access_point.host, browser.host) == []
