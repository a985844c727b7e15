"""The package write path end to end: a write costs what it changes.

One master/slave package with two slaves, a caching HTTPD replica and
write-through checkpoints on every object server.  A write is pushed
to both slaves, restored there, checkpointed three times and pulled
into the cache on its next read.  The op log rides along in every one
of those transfers — packed, so the marshal work a write causes does
not grow with the writes before it.  The guard counts marshalled
values, not wall clock.
"""

from repro.core import marshal
from repro.core.subobjects import RemoteInvocationError
from repro.gdn.deployment import GdnDeployment
from repro.gdn.scenario import ReplicationScenario
from repro.sim.topology import Topology

NAME = "/apps/demo/Tool"
FILE = "tool.bin"
PATCH = "patches/latest.bin"
PATCHES = (b"a" * 512, b"b" * 512)


class _Package:
    """The deployment, its moderator and a browser behind the cache."""

    def __init__(self):
        gdn = self.gdn = GdnDeployment(
            topology=Topology.balanced(2, 2, 1, 2), seed=3, secure=False)
        for name, site in (("gos-0", "r0/c0/m0/s0"), ("gos-1", "r1/c0/m0/s0"),
                           ("gos-2", "r1/c1/m0/s0")):
            gdn.add_gos(name, site)
        self.httpd = gdn.add_httpd("httpd-1", colocate_with="gos-1",
                                   binding_ttl=None,
                                   cache_policy=lambda _name: 0.5)
        gdn.initial_sync()
        self.moderator = gdn.add_moderator("mod", "r0/c0/m0/s1")
        self.oid = gdn.run(self.moderator.create_package(
            NAME, {FILE: b"release"},
            ReplicationScenario.master_slave("gos-0", ["gos-1", "gos-2"])),
            host=self.moderator.host)
        gdn.settle(5.0)
        self.browser = gdn.add_browser("user", "r1/c0/m0/s1",
                                       access_point=self.httpd)
        self.writes = 0
        self.read()

    def write(self, count=1):
        moderator = self.moderator

        def writes():
            for _ in range(count):
                yield from moderator.update_package(
                    NAME, add_files={PATCH: PATCHES[self.writes % 2]})
                self.writes += 1

        self.gdn.run(writes(), host=moderator.host)
        self.gdn.settle(2.0)  # pushes, restores, checkpoints; cache stale

    def read(self):
        response = self.gdn.run(self.browser.download(NAME, FILE),
                                host=self.browser.host)
        assert response.ok and response.body == b"release"

    def replica(self, gos_name):
        return self.gdn.object_servers[gos_name].replicas[self.oid.hex]

    def cache(self):
        return self.httpd.runtime.bound[self.oid]


class _MarshalCounter:
    """Counts every value :mod:`repro.core.marshal` encodes and decodes."""

    def __init__(self, monkeypatch):
        self.encoded = self.decoded = 0
        encode, decode = marshal._encode, marshal._decode

        def counting_encode(value, append):
            self.encoded += 1
            encode(value, append)

        def counting_decode(data, offset):
            self.decoded += 1
            return decode(data, offset)

        monkeypatch.setattr(marshal, "_encode", counting_encode)
        monkeypatch.setattr(marshal, "_decode", counting_decode)

    def cost(self, action):
        before = (self.encoded, self.decoded)
        action()
        return self.encoded - before[0], self.decoded - before[1]


def test_one_more_write_costs_the_same_after_10_and_200_writes(monkeypatch):
    package = _Package()
    counter = _MarshalCounter(monkeypatch)
    cache = package.cache().replication
    slave = package.replica("gos-1").replication

    def one_write_then_read():
        pulls, version = cache.pulls, slave.version
        package.write()
        package.read()  # the stale cache pulls the new state
        assert cache.pulls == pulls + 1
        assert slave.version == version + 1

    package.write(10)
    package.read()
    after_10 = counter.cost(one_write_then_read)
    package.write(189)
    package.read()
    after_200 = counter.cost(one_write_then_read)

    assert len(package.replica("gos-0").semantics.getHistory()) > 200
    assert after_10[0] > 0 and after_10[1] > 0
    assert after_200 == after_10


def test_history_is_the_same_at_every_replica_and_after_recovery():
    package = _Package()
    package.write(12)
    package.read()
    master = package.replica("gos-0").semantics.getHistory()
    assert [entry["version"] for entry in master] == \
        list(range(1, len(master) + 1))
    assert master[-1]["path"] == PATCH
    for copy in (package.replica("gos-1"), package.replica("gos-2"),
                 package.cache()):
        assert copy.semantics.getHistory() == master

    gdn = package.gdn
    for name in ("gos-0", "gos-2"):
        gdn.object_servers[name].host.crash()
        gdn.recover_gos(name)
    gdn.settle(5.0)
    for name in ("gos-0", "gos-2"):
        assert package.replica(name).semantics.getHistory() == master
    package.write()
    assert package.replica("gos-2").semantics.getHistory()[:-1] == master


def test_truncated_log_fails_history_reads_only():
    package = _Package()
    package.write(3)
    slave = package.replica("gos-2")
    state = slave.semantics.snapshot_state()
    state["history"] = state["history"][:-5]
    slave.semantics.restore_state(state)
    gdn = package.gdn

    def read(method, args=None):
        return gdn.run(slave.invoke(method, args), host=slave.host)

    def history():
        try:
            yield from slave.invoke("getHistory")
        except RemoteInvocationError as error:
            return error
        return None

    refused = gdn.run(history(), host=slave.host)
    assert isinstance(refused, RemoteInvocationError)
    assert "MarshalError" in str(refused)
    assert read("getFileContents", {"path": FILE}) == b"release"
    assert read("getVersion") == state["version"]
    assert [entry["path"] for entry in read("listContents")] == \
        sorted([FILE, PATCH])
