"""Unit tests for the attribute-based search service (§8)."""

import pytest

from repro.gdn.search import SearchService
from repro.sim import rpc
from repro.sim.topology import Topology
from repro.sim.world import World


@pytest.fixture
def world():
    return World(topology=Topology.balanced(2, 2, 1, 2), seed=19)


@pytest.fixture
def service(world):
    host = world.host("search", "r0/c0/m0/s0")
    service = SearchService(host)
    service.start()
    return service


def _call(world, client_host, service, method, args):
    def drive():
        reply = yield from rpc.call(client_host, service.host, service.port,
                                    method, args)
        return reply

    return world.run_until(client_host.spawn(drive()), limit=1e6)


def _register_fixtures(world, client, service):
    packages = [
        ("/apps/graphics/gimp", {"category": "graphics", "license": "gpl"}),
        ("/apps/graphics/xfig", {"category": "graphics", "license": "mit"}),
        ("/apps/editors/emacs", {"category": "editors", "license": "gpl"}),
    ]
    for name, attributes in packages:
        _call(world, client, service, "register",
              {"name": name, "attributes": attributes})


def test_register_and_search_by_attribute(world, service):
    client = world.host("client", "r0/c0/m0/s1")
    assert _call(world, client, service, "register",
                 {"name": "/apps/x", "attributes": {"a": "1", "b": "2"}}) \
        == {"indexed": "/apps/x", "attributes": 2}
    _register_fixtures(world, client, service)
    reply = _call(world, client, service, "search",
                  {"query": {"category": "graphics"}})
    assert reply["matches"] == ["/apps/graphics/gimp",
                                "/apps/graphics/xfig"]


def test_conjunctive_query(world, service):
    client = world.host("client", "r0/c0/m0/s1")
    _register_fixtures(world, client, service)
    reply = _call(world, client, service, "search",
                  {"query": {"category": "graphics", "license": "gpl"}})
    assert reply["matches"] == ["/apps/graphics/gimp"]


def test_search_is_case_insensitive_on_values(world, service):
    client = world.host("client", "r0/c0/m0/s1")
    _call(world, client, service, "register",
          {"name": "/apps/x", "attributes": {"license": "GPL"}})
    reply = _call(world, client, service, "search",
                  {"query": {"license": "gpl"}})
    assert reply["matches"] == ["/apps/x"]


def test_empty_query_lists_everything(world, service):
    client = world.host("client", "r0/c0/m0/s1")
    _register_fixtures(world, client, service)
    reply = _call(world, client, service, "search", {"query": {}})
    assert len(reply["matches"]) == 3


def test_no_match(world, service):
    client = world.host("client", "r0/c0/m0/s1")
    _register_fixtures(world, client, service)
    reply = _call(world, client, service, "search",
                  {"query": {"category": "games"}})
    assert reply["matches"] == []


def test_reregistration_replaces_attributes(world, service):
    client = world.host("client", "r0/c0/m0/s1")
    _call(world, client, service, "register",
          {"name": "/apps/x", "attributes": {"category": "old"}})
    _call(world, client, service, "register",
          {"name": "/apps/x", "attributes": {"category": "new"}})
    assert _call(world, client, service, "search",
                 {"query": {"category": "old"}})["matches"] == []
    assert _call(world, client, service, "search",
                 {"query": {"category": "new"}})["matches"] == ["/apps/x"]


def test_unregister_removes_from_index(world, service):
    client = world.host("client", "r0/c0/m0/s1")
    _register_fixtures(world, client, service)
    reply = _call(world, client, service, "unregister",
                  {"name": "/apps/graphics/gimp"})
    assert reply["removed"]
    reply = _call(world, client, service, "search",
                  {"query": {"category": "graphics"}})
    assert reply["matches"] == ["/apps/graphics/xfig"]
    # The last package of a value takes its index entry with it.
    _call(world, client, service, "unregister",
          {"name": "/apps/editors/emacs"})
    assert ("category", "editors") not in service._index


def test_authorizer_gates_registration_not_queries(world):
    host = world.host("search", "r0/c0/m0/s0")
    service = SearchService(host,
                            authorizer=lambda ctx: False)
    service.start()
    client = world.host("client", "r0/c0/m0/s1")

    def mutate(method):
        try:
            yield from rpc.call(client, host, service.port, method,
                                {"name": "/apps/x", "attributes": {}})
        except rpc.RpcFault as fault:
            return fault.kind

    for method in ("register", "unregister"):
        assert world.run_until(client.spawn(mutate(method)),
                               limit=1e6) == "PermissionError"
    assert service.rejected == 2
    reply = _call(world, client, service, "search", {"query": {}})
    assert reply["matches"] == []  # queries still answered
