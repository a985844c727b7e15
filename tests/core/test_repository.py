"""Unit tests for the implementation repository."""

import pytest

from repro.core.repository import (Implementation, ImplementationRepository,
                                   RepositoryError)
from repro.sim.serde import HEADER_OVERHEAD
from repro.sim.topology import Level, Topology
from repro.sim.world import World
from tests.util import KvStore


@pytest.fixture
def world():
    return World(topology=Topology.balanced(2, 2, 2, 2), seed=11)


@pytest.fixture
def repo(world):
    repository = ImplementationRepository(world)
    repository.register(Implementation("test.kv", KvStore, code_size=40_000))
    return repository


def test_unknown_implementation_rejected(repo, world):
    host = world.host("h", "r0/c0/m0/s0")
    with pytest.raises(RepositoryError):
        repo.implementation("nope")

    def load():
        yield from repo.load(host, "nope")

    process = world.sim.process(load())
    with pytest.raises(RepositoryError):
        world.run()
        process.value


def test_load_without_repo_hosts_is_free(repo, world):
    host = world.host("h", "r0/c0/m0/s0")

    def load():
        start = world.now
        implementation = yield from repo.load(host, "test.kv")
        return implementation.impl_id, world.now - start

    impl_id, duration = world.run_until(world.sim.process(load()))
    assert impl_id == "test.kv"
    assert duration == 0.0


def test_load_charges_transfer_from_nearest_repo(repo, world):
    near = world.host("repo-near", "r0/c0/m0/s1")
    far = world.host("repo-far", "r1/c0/m0/s0")
    repo.add_repository_host(far)
    repo.add_repository_host(near)
    host = world.host("h", "r0/c0/m0/s0")

    def load():
        start = world.now
        yield from repo.load(host, "test.kv")
        return world.now - start

    duration = world.run_until(world.sim.process(load()))
    # Fetched from the near (city-level) repo, not the far one.
    city_delay = world.network.transfer_delay(
        host.site, near.site, 40_000)
    assert duration < 2 * city_delay + 0.01
    # The request (framing and the implementation's id), then the code.
    assert world.network.meter.bytes_by_level[Level.CITY] \
        == HEADER_OVERHEAD + len("test.kv") + 40_000
    assert world.network.meter.bytes_by_level[Level.WORLD] == 0


def test_second_load_is_cached(repo, world):
    near = world.host("repo-near", "r0/c0/m0/s1")
    repo.add_repository_host(near)
    host = world.host("h", "r0/c0/m0/s0")

    def load_twice():
        yield from repo.load(host, "test.kv")
        t_after_first = world.now
        yield from repo.load(host, "test.kv")
        return t_after_first, world.now

    first, second = world.run_until(world.sim.process(load_twice()))
    assert second == first  # cache hit costs nothing
    assert repo.downloads == 1


def test_preload_skips_download(repo, world):
    near = world.host("repo-near", "r0/c0/m0/s1")
    repo.add_repository_host(near)
    host = world.host("h", "r0/c0/m0/s0")
    repo.preload(host, "test.kv")

    def load():
        yield from repo.load(host, "test.kv")
        return world.now

    assert world.run_until(world.sim.process(load())) == 0.0
    assert repo.downloads == 0


def test_down_repo_host_skipped(repo, world):
    near = world.host("repo-near", "r0/c0/m0/s1")
    far = world.host("repo-far", "r1/c0/m0/s0")
    repo.add_repository_host(near)
    repo.add_repository_host(far)
    near.crash()
    host = world.host("h", "r0/c0/m0/s0")

    def load():
        yield from repo.load(host, "test.kv")

    world.run_until(world.sim.process(load()))
    assert world.network.meter.bytes_by_level[Level.WORLD] >= 40_000


def test_make_semantics_fresh_instances(repo):
    implementation = repo.implementation("test.kv")
    a = implementation.make_semantics()
    b = implementation.make_semantics()
    a.put("k", "v")
    assert b.get("k") is None
