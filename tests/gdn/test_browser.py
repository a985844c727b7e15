"""Browser tests: one channel to the access point, however often it breaks."""

from types import SimpleNamespace

from repro.gdn.browser import Browser
from repro.gdn.deployment import GdnDeployment
from repro.gdn.httpd import HTTP_PORT
from repro.gdn.scenario import ReplicationScenario
from repro.sim.failures import FailureInjector
from repro.sim.rpc import RpcServer
from repro.sim.topology import Topology
from repro.sim.transport import ConnectionClosed
from repro.sim.world import World

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


def _outcome(world, reboots_after):
    """What a GET gets from an ``http`` server whose host crashes and
    comes back (its server started again) at each delay of
    ``reboots_after``, one after the other from when the GET is sent
    on an open channel."""
    host = world.host("ap", "r0/c0/m0/s0")
    user = world.host("user", "r0/c0/m0/s1")

    def serve():
        server = RpcServer(host, HTTP_PORT)
        server.register("http", lambda _ctx, args: {
            "status": 200, "body": b"ok",
            "headers": {"content-type": "text/plain"}})
        server.start()

    def reboots():
        for delay in reboots_after:
            yield world.sim.timeout(delay)
            host.crash()
            host.restart()
            serve()

    serve()
    browser = Browser(world, user, SimpleNamespace(host=host, port=HTTP_PORT))

    def get():
        yield from browser.get("/gdn/apps/x")  # opens the channel
        world.sim.process(reboots())
        try:
            response = yield from browser.get("/gdn/apps/x")
        except ConnectionClosed:
            return "connection closed"
        return response.status, response.headers["content-type"]

    return world.run_until(user.spawn(get()), limit=60.0)


def test_a_get_cut_by_an_access_point_reboot_is_sent_once_more():
    # The request is on the wire (one CITY flight, 2 ms) when the host
    # crashes at 1 ms; the browser reconnects and asks again.
    world = World(topology=Topology.balanced(1, 1, 1, 2), seed=1)
    assert _outcome(world, [0.001]) == (200, "text/plain")


def test_a_get_cut_twice_fails_with_the_closed_connection():
    # The second reboot, at 6 ms, cuts the retry (reconnected at 5 ms,
    # on the wire until 7 ms): the GET gives up.
    world = World(topology=Topology.balanced(1, 1, 1, 2), seed=1)
    assert _outcome(world, [0.001, 0.005]) == "connection closed"


def test_closing_a_browser_pool_closes_every_browser_it_made():
    gdn = GdnDeployment.from_spec({
        "topology": [2, 2, 1, 2], "seed": 5, "secure": False,
        "gos": {"gos-0": "r0/c0/m0/s0"},
        "httpds": {"ap": {"site": "r0/c0/m0/s1", "cache_ttl": None}},
        "moderators": {"mod": "r0/c1/m0/s0"}})
    moderator = gdn.moderators["mod"]
    gdn.run(moderator.create_package(
        "/apps/demo/Tool", {"tool.bin": b"x" * 64},
        ReplicationScenario.single_server("gos-0")), host=moderator.host)
    pool = gdn.browser_pool("user")
    browsers = [pool(site) for site in ("r0/c0/m0/s0", "r1/c0/m0/s0")]
    assert pool("r0/c0/m0/s0") is browsers[0]
    for browser in browsers:
        assert gdn.run(browser.get(URL), host=browser.host).ok
    pool.close()
    gdn.settle(5.0)
    access_point = gdn.httpds[0]
    assert [_connections(browser.host, access_point.host)
            for browser in browsers] == [[], []]
