"""Tests for the baseline systems (single-server WWW, FTP mirrors)."""

import pytest

from repro.baselines.mirror import MirrorNetwork
from repro.baselines.uniform import UNIFORM_STRATEGIES
from repro.baselines.www import WwwClient, WwwServer
from repro.gdn.scenario import ObjectUsage
from repro.sim.topology import Level, Topology
from repro.sim.world import World


@pytest.fixture
def world():
    return World(topology=Topology.balanced(2, 2, 2, 2), seed=17)


def run(world, generator, host, limit=1e7):
    return world.run_until(host.spawn(generator), limit=limit)


# -- single-server WWW ---------------------------------------------------------


def test_www_serves_documents(world):
    origin = world.host("www-origin", "r0/c0/m0/s0")
    server = WwwServer(origin)
    server.publish("/doc", b"hello web")
    server.start()
    user = world.host("user", "r1/c0/m0/s0")
    client = WwwClient(world, user, server)

    def fetch():
        status, body, elapsed = yield from client.get("/doc")
        return status, body, elapsed

    status, body, elapsed = run(world, fetch(), user)
    assert status == 200
    assert body == b"hello web"
    assert elapsed > 2 * 0.150  # cross-region round trips


def test_www_missing_document(world):
    origin = world.host("www-origin", "r0/c0/m0/s0")
    server = WwwServer(origin)
    server.start()
    user = world.host("user", "r0/c0/m0/s1")
    client = WwwClient(world, user, server)

    def fetch():
        status, _body, _elapsed = yield from client.get("/ghost")
        return status

    assert run(world, fetch(), user) == 404


def test_www_all_traffic_hits_origin(world):
    origin = world.host("www-origin", "r0/c0/m0/s0")
    server = WwwServer(origin)
    server.publish("/doc", b"d" * 10_000)
    server.start()
    for index, site in enumerate(["r0/c0/m0/s1", "r1/c0/m0/s0",
                                  "r1/c1/m0/s0"]):
        user = world.host("user-%d" % index, site)
        client = WwwClient(world, user, server)

        def fetch(client=client):
            yield from client.get("/doc")

        run(world, fetch(), user)
    assert server.requests_served == 3
    # Remote users dragged the document across the world link.
    assert world.network.meter.bytes_by_level[Level.WORLD] > 20_000


# -- FTP-style mirroring ----------------------------------------------------------


def test_mirror_sync_and_local_fetch(world):
    origin_host = world.host("ftp-origin", "r0/c0/m0/s0")
    network = MirrorNetwork(world, origin_host, sync_period=3600)
    mirror_host = world.host("ftp-mirror", "r1/c0/m0/s0")
    network.add_mirror(mirror_host)
    network.publish("/pkg/gcc.tar.gz", b"g" * 50_000)

    def sync():
        yield from network.sync_all()

    run(world, sync(), origin_host)
    user = world.host("user", "r1/c0/m0/s1")

    def fetch():
        status, body, elapsed = yield from network.fetch(
            user, "/pkg/gcc.tar.gz")
        return status, len(body), elapsed

    status, size, elapsed = run(world, fetch(), user)
    assert status == 200
    assert size == 50_000
    assert elapsed < 0.2  # served inside the region

    def fetch_missing():
        status, _body, _elapsed = yield from network.fetch(user, "/nope")
        return status

    assert run(world, fetch_missing(), user) == 404
    # Each fetch and the sync closed the connection they opened.
    world.run(until=world.now + 1.0)
    assert (len(user._connections), len(mirror_host._connections)) \
        == (0, 0)


def test_mirror_staleness_window(world):
    origin_host = world.host("ftp-origin", "r0/c0/m0/s0")
    network = MirrorNetwork(world, origin_host, sync_period=3600)
    mirror_host = world.host("ftp-mirror", "r1/c0/m0/s0")
    mirror = network.add_mirror(mirror_host)
    network.publish("/pkg", b"version-1")
    run(world, network.sync_all(), origin_host)
    network.publish("/pkg", b"version-2")
    # Before the next sync round the mirror still serves version 1.
    assert mirror.documents["/pkg"] == b"version-1"
    run(world, network.sync_all(), origin_host)
    assert mirror.documents["/pkg"] == b"version-2"


def test_mirror_periodic_sync_runs(world):
    origin_host = world.host("ftp-origin", "r0/c0/m0/s0")
    network = MirrorNetwork(world, origin_host, sync_period=100.0)
    mirror = network.add_mirror(world.host("ftp-mirror", "r1/c0/m0/s0"))
    network.publish("/pkg", b"data")
    world.run(until=250.0)
    assert mirror.documents.get("/pkg") == b"data"
    assert network.syncs_completed >= 2


def test_mirror_sync_transfers_everything_once(world):
    """Mirrors carry the whole corpus even if nobody reads it."""
    origin_host = world.host("ftp-origin", "r0/c0/m0/s0")
    network = MirrorNetwork(world, origin_host, sync_period=1e9)
    mirror = network.add_mirror(world.host("ftp-mirror", "r1/c0/m0/s0"))
    for index in range(20):
        network.publish("/pkg/%d" % index, b"x" * 10_000)
    before = world.network.meter.bytes_by_level[Level.WORLD]
    run(world, network.sync_all(), origin_host)
    transferred = world.network.meter.bytes_by_level[Level.WORLD] - before
    assert transferred > 20 * 10_000
    assert sum(map(len, mirror.documents.values())) == 20 * 10_000
    # A second sync with no changes moves only the manifest.
    before = world.network.meter.bytes_by_level[Level.WORLD]
    run(world, network.sync_all(), origin_host)
    assert world.network.meter.bytes_by_level[Level.WORLD] - before < 5_000


# -- uniform strategies -------------------------------------------------------------


def test_uniform_strategies_assign_same_scenario_everywhere():
    strategies = UNIFORM_STRATEGIES("gos-a", ["gos-a", "gos-b", "gos-c"])
    assert set(strategies) == {"NoRepl", "CacheTTL", "ReplAll"}
    hot = ObjectUsage({"r0": 1000}, writes=0)
    cold = ObjectUsage({"r1": 1}, writes=50)
    for name, assign in strategies.items():
        s_hot = assign("/doc/hot", hot)
        s_cold = assign("/doc/cold", cold)
        assert s_hot.protocol == s_cold.protocol
        assert s_hot.slave_gos == s_cold.slave_gos, name
    assert len(strategies["ReplAll"]("/x", hot).slave_gos) == 2
    assert strategies["NoRepl"]("/x", hot).cache_ttl is None
