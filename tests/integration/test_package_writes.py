"""The package write path end to end: a write costs what it changes.

One master/slave package with two slaves, a caching HTTPD replica and
write-through checkpoints on every object server.  A write is pushed
to both slaves as the change set it made, replayed there,
checkpointed three times and pulled into the cache on its next read.
The op log rides along in every checkpoint — packed, so the marshal
work a write causes does not grow with the writes before it — and
only the entries a write appended ride along in a push.  The guards
count marshalled values and message bytes, not wall clock.
"""

from repro.core import marshal
from repro.core.subobjects import RemoteInvocationError
from repro.gdn.deployment import GdnDeployment
from repro.gdn.scenario import ReplicationScenario
from repro.sim.serde import encoded_size

NAME = "/apps/demo/Tool"
FILE = "tool.bin"
PATCH = "patches/latest.bin"


class _Package:
    """The deployment, its moderator and a browser behind the cache."""

    def __init__(self, files=None):
        gdn = self.gdn = GdnDeployment.from_spec({
            "topology": [2, 2, 1, 2], "seed": 3, "secure": False,
            "gos": {"gos-0": "r0/c0/m0/s0", "gos-1": "r1/c0/m0/s0",
                    "gos-2": "r1/c1/m0/s0"},
            "httpds": {"httpd-1": {"colocate_with": "gos-1",
                                   "binding_ttl": None, "cache_ttl": 0.5}},
            "moderators": {"mod": "r0/c0/m0/s1"}})
        self.httpd = gdn.httpds[0]
        self.moderator = gdn.moderators["mod"]
        self.oid = gdn.run(self.moderator.create_package(
            NAME, dict(files or {}, **{FILE: b"release"}),
            ReplicationScenario.master_slave("gos-0", ["gos-1", "gos-2"])),
            host=self.moderator.host)
        gdn.settle(5.0)
        self.browser = gdn.add_browser("user", "r1/c0/m0/s1")
        self.writes = 0
        self.read()

    def write(self, count=1, size=512):
        """``count`` writes of ``size`` bytes to the patch file, its
        contents alternating between two values."""
        moderator = self.moderator

        def writes():
            for _ in range(count):
                yield from moderator.update_package(
                    NAME, add_files={PATCH: (b"a", b"b")[self.writes % 2]
                                     * size})
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


class _WireMeter:
    """Bytes of the ``kind`` messages one replica sends, and of the
    replies it gets to them."""

    def __init__(self, replication, kind):
        self.sent, self.replies = [], []
        send = replication._send

        def metered(address, message):
            if message.get("type") != kind:
                return (yield from send(address, message))
            self.sent.append(encoded_size(message))
            reply = yield from send(address, message)
            self.replies.append(encoded_size(reply))
            return reply

        replication._send = metered


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
    # The key memo starts empty, as in a fresh process: keys that other
    # tests left in it (or evicted from it) would move the counts.
    marshal._encoded_key.cache_clear()
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
    # Kept beside the crash-point sweep: two crashes.
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
        gdn.object_servers[name].host.restart()
    gdn.settle(5.0)
    for name in ("gos-0", "gos-2"):
        assert package.replica(name).semantics.getHistory() == master
    package.write()
    assert package.replica("gos-2").semantics.getHistory()[:-1] == master


def test_truncated_log_fails_history_reads_only():
    package = _Package()
    package.write(3)
    master = package.replica("gos-0")
    state = master.semantics.snapshot_state()
    state["history"] = state["history"][:-5]
    master.semantics.restore_state(state)
    gdn, runtime = package.gdn, package.moderator.runtime

    def read(method, args=None):
        """One read through the moderator's binding, which reads at its
        nearest replica, the master; a fault comes back as the value."""
        def invoke():
            lr = yield from runtime.bind(package.oid)
            try:
                return (yield from lr.invoke(method, args))
            except RemoteInvocationError as error:
                return error

        return gdn.run(invoke(), host=runtime.host)

    refused = read("getHistory")
    assert isinstance(refused, RemoteInvocationError)
    assert "MarshalError" in str(refused)
    assert read("getFileContents", {"path": FILE}) == b"release"
    assert read("getFileManifest", {"path": FILE})["version"] \
        == state["version"]
    assert [entry["path"] for entry in read("listContents")] == \
        sorted([FILE, PATCH])


PATCH_SIZE = 4096


def _bulk(total):
    """Package contents of about ``total`` bytes, in 64 KiB files."""
    chunk = 64 * 1024
    return {"data/%03d.bin" % index: bytes([index % 251]) * chunk
            for index in range(max(1, total // chunk))}


def _push_bytes_of_one_write(package):
    meter = _WireMeter(package.replica("gos-0").replication, "state_push")
    package.write(size=PATCH_SIZE)
    assert len(meter.sent) == 2  # one push per slave
    return max(meter.sent)


def test_a_push_costs_one_write_whatever_the_package_and_its_past():
    """Bytes per push for one 4 KiB write: the same for a 64 KiB and a
    4 MiB package, after 10 and after 200 writes — within 5 %."""
    pushes = []
    for total in (64 * 1024, 4 * 1024 * 1024):
        package = _Package(_bulk(total))
        package.write(10)
        pushes.append(_push_bytes_of_one_write(package))
        package.write(189)
        pushes.append(_push_bytes_of_one_write(package))
        assert len(package.replica("gos-1").semantics.getHistory()) > 200
    assert PATCH_SIZE <= min(pushes)
    assert max(pushes) <= 1.05 * min(pushes)


def test_a_cache_refresh_after_many_writes_to_one_file_ships_no_more_than_state():
    """k overwrites of one 4 KiB file since the cache's copy: one
    refresh carries that file once (and k op-log entries), never more
    than the whole package would cost."""
    package = _Package(_bulk(64 * 1024))
    meter = _WireMeter(package.cache().replication, "pull")
    for k in (1, 8, 32):
        package.write(k, size=PATCH_SIZE)
        package.read()
        whole_state = len(marshal.pack(
            package.replica("gos-1").semantics.replication_state()))
        refresh = meter.replies[-1]
        assert refresh <= whole_state
        assert refresh <= PATCH_SIZE + 512 * k
    assert package.cache().semantics.getHistory() == \
        package.replica("gos-0").semantics.getHistory()
