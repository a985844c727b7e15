"""Unit tests for URL parsing, HTML rendering and access points."""

import doctest

import pytest

from repro.gdn import httpd
from repro.gdn.browser import nearest_access_point
from repro.gdn.httpd import parse_gdn_url, render_listing


def test_parse_package_url():
    assert parse_gdn_url("/gdn/apps/graphics/Gimp") == \
        ("/apps/graphics/Gimp", None)


def test_parse_file_url():
    assert parse_gdn_url("/gdn/apps/graphics/Gimp/files/bin/gimp") == \
        ("/apps/graphics/Gimp", "bin/gimp")


def test_parse_nested_file_path():
    name, path = parse_gdn_url("/gdn/os/Linux/files/boot/vmlinuz-2.2.14")
    assert name == "/os/Linux"
    assert path == "boot/vmlinuz-2.2.14"


def test_parse_trailing_slash():
    assert parse_gdn_url("/gdn/apps/Gimp/") == ("/apps/Gimp", None)


def test_parse_file_url_whose_path_names_another_route():
    assert parse_gdn_url("/gdn/apps/Gimp/files/docs/manifest/readme.txt") \
        == ("/apps/Gimp", "docs/manifest/readme.txt")
    assert parse_gdn_url("/gdn/apps/Gimp/files/src/chunk/io.c") == \
        ("/apps/Gimp", "src/chunk/io.c")
    assert parse_gdn_url("/gdn/apps/Gimp/files/a/files/b") == \
        ("/apps/Gimp", "a/files/b")


def test_url_doctests():
    results = doctest.testmod(httpd)
    assert results.attempted and not results.failed


def test_parse_non_gdn_url_rejected():
    with pytest.raises(ValueError):
        parse_gdn_url("/index.html")
    with pytest.raises(ValueError):
        parse_gdn_url("gdn/apps/Gimp")


def test_render_listing_contains_links_and_sizes():
    page = render_listing("/apps/Gimp", [{"path": "README", "size": 10},
                                         {"path": "bin/gimp", "size": 999}])
    assert "<html>" in page
    assert "/gdn/apps/Gimp/files/README" in page
    assert "999" in page
    assert "Globe Distribution Network" in page


def test_render_listing_escapes_html():
    page = render_listing("/apps/<script>", [{"path": "a&b", "size": 1}])
    assert "<script>" not in page.replace("&lt;script&gt;", "")
    assert "a&amp;b" in page


class _FakeHttpd:
    def __init__(self, host):
        self.host = host


def test_nearest_access_point_prefers_closest():
    from repro.sim.topology import Topology
    from repro.sim.world import World

    world = World(topology=Topology.balanced(2, 2, 2, 2))
    user = world.host("user", "r0/c0/m0/s0")
    near = _FakeHttpd(world.host("httpd-near", "r0/c0/m1/s0"))
    far = _FakeHttpd(world.host("httpd-far", "r1/c0/m0/s0"))
    assert nearest_access_point(user, [far, near]) is near
    with pytest.raises(ValueError):
        nearest_access_point(user, [])
