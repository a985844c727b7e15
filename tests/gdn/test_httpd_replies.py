"""What a GDN-HTTPD answers a request it cannot serve, and what it
counts: each such reply is an error, and each served body its bytes
(``gdnbench`` reads both, as ``gdn.httpd.errors`` and
``bytes_served``)."""

from repro.gdn.deployment import GdnDeployment, standard_spec
from repro.gdn.scenario import ReplicationScenario
from repro.sim import rpc
from repro.sim.serde import encoded_size


def _ask(gdn, args: dict) -> dict:
    """The HTTPD's reply to one raw ``http`` request from a user host."""
    access_point = gdn.httpds[0]
    user = gdn.world.hosts.get("user") or gdn.world.host("user",
                                                          "r0/c0/m0/s1")
    return gdn.run(rpc.call(user, access_point.host, access_point.port,
                            "http", args), host=user)


def _deployment():
    return GdnDeployment.from_spec({**standard_spec(1, 1, 1, 2), "seed": 3,
                                    "secure": False})


def test_what_is_not_a_gdn_get_is_refused_and_counted():
    gdn = _deployment()
    access_point = gdn.httpds[0]
    post = _ask(gdn, {"method": "POST", "path": "/gdn/apps/x"})
    assert (post["status"], post["body"]) == (405, "method not allowed")
    page = _ask(gdn, {"method": "GET", "path": "/index.html"})
    assert (page["status"], page["body"]) \
        == (404, "not a GDN URL: /index.html")
    chunk = _ask(gdn, {"method": "GET",
                       "path": "/gdn/apps/x/chunk/one/README"})
    assert (chunk["status"], chunk["body"]) \
        == (404, "bad transfer URL: /gdn/apps/x/chunk/one/README")
    unknown = _ask(gdn, {"method": "GET", "path": "/gdn/apps/nope/files/x"})
    assert (unknown["status"], unknown["body"]) \
        == (404, "unknown package /apps/nope")
    assert access_point.errors == 4
    assert access_point.bytes_served == 0


def test_served_bodies_are_counted_and_a_missing_file_is_an_error():
    gdn = _deployment()
    access_point = gdn.httpds[0]
    moderator = gdn.add_moderator("mod", "r0/c0/m0/s1")
    gdn.run(moderator.create_package(
        "/apps/graphics/tool", {"README": b"r" * 300},
        ReplicationScenario.single_server("gos-r0-0")), host=moderator.host)
    gdn.settle(5.0)
    readme = _ask(gdn, {"method": "GET",
                        "path": "/gdn/apps/graphics/tool/files/README"})
    assert (readme["status"], readme["body"]) == (200, b"r" * 300)
    assert access_point.bytes_served == 300
    manifest = _ask(gdn, {"method": "GET",
                          "path": "/gdn/apps/graphics/tool/manifest/README"})
    assert manifest["status"] == 200
    assert access_point.bytes_served == 300 + encoded_size(manifest["body"])
    search = _ask(gdn, {"method": "GET",
                        "path": "/gdn-search?category=graphics"})
    assert search["status"] == 200 and "/apps/graphics/tool" in search["body"]
    assert access_point.bytes_served \
        == 300 + encoded_size(manifest["body"]) + len(search["body"])
    missing = _ask(gdn, {"method": "GET",
                         "path": "/gdn/apps/graphics/tool/files/NEWS"})
    assert (missing["status"], missing["body"]) \
        == (404, "no file NEWS in /apps/graphics/tool")
    assert access_point.errors == 1


def test_search_without_a_reachable_service_is_503():
    gdn = _deployment()
    access_point = gdn.httpds[0]
    # A crashed search host fails the connect (a transport error, no
    # RPC error): that too is a 503, not a fault the user's RPC sees.
    gdn.search.host.crash()
    down = _ask(gdn, {"method": "GET", "path": "/gdn-search?category=x"})
    assert (down["status"], down["body"]) \
        == (503, "search service unreachable")
    access_point.search_endpoint = None
    unset = _ask(gdn, {"method": "GET", "path": "/gdn-search?category=x"})
    assert (unset["status"], unset["body"]) \
        == (503, "no search service configured")
    assert access_point.errors == 2
