"""Shared helpers for the test suite: fakes and sample DSO semantics."""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
from typing import Dict, Generator, List, Optional

from repro.core.idl import mutating, read_only
from repro.core.ids import ObjectId
from repro.core.subobjects import SemanticsSubobject
from repro.sim.topology import Topology
from repro.workloads.loadgen import Arrival
from repro.workloads.scenario import TraceScenario


def oid_from_seed(seed: str) -> ObjectId:
    """A deterministic OID derived from a string."""
    return ObjectId(hashlib.sha1(seed.encode("utf-8")).digest())


class FakeLocationService:
    """In-memory stand-in for the Globe Location Service.

    Implements the interface the runtime and object servers consume
    (``lookup`` / ``register`` / ``unregister`` as generators), keeping
    contact addresses in insertion order unless a ``sort_site`` is
    given, in which case lookups are nearest-first like the real GLS.
    """

    def __init__(self, world=None, sort_site=None):
        self.world = world
        self.sort_site = sort_site
        self.records: Dict[str, List[dict]] = {}
        self._counter = itertools.count(1)

    def register(self, oid_hex: Optional[str], ca_wire: dict
                 ) -> Generator[object, object, str]:
        if oid_hex is None:
            oid_hex = oid_from_seed(
                "fake-gls-%d" % next(self._counter)).hex
        existing = self.records.setdefault(oid_hex, [])
        if ca_wire not in existing:
            existing.append(ca_wire)
        return oid_hex
        yield  # pragma: no cover - no simulated delay in the fake

    def unregister(self, oid_hex: str, ca_wire: dict) -> Generator:
        addresses = self.records.get(oid_hex, [])
        if ca_wire in addresses:
            addresses.remove(ca_wire)
        return None
        yield  # pragma: no cover

    def lookup(self, oid_hex: str) -> Generator[object, object, List[dict]]:
        wires = list(self.records.get(oid_hex, []))
        if self.sort_site is not None and self.world is not None:
            def distance(wire):
                site = self.world.topology.site(wire["site"])
                return Topology.separation(self.sort_site, site)
            wires.sort(key=distance)
        return wires
        yield  # pragma: no cover


class WholeStateSemantics(SemanticsSubobject):
    """The replication hooks with no deltas: the state shipped is the
    whole snapshot, and a change set is the whole state."""

    def replication_state(self) -> dict:
        return self.snapshot_state()

    def take_changes(self) -> dict:
        return self.replication_state()

    def apply_changes(self, changes: dict) -> None:
        self.restore_replication_state(changes)

    def squash_changes(self, change_sets: list) -> dict:
        return change_sets[-1]


class KvStore(WholeStateSemantics):
    """A small key/value semantics subobject used across the tests."""

    def __init__(self):
        self.data: Dict[str, str] = {}

    @mutating
    def put(self, key: str, value: str) -> None:
        self.data[key] = value

    @mutating
    def delete(self, key: str) -> bool:
        return self.data.pop(key, None) is not None

    @read_only
    def get(self, key: str) -> Optional[str]:
        return self.data.get(key)

    @read_only
    def size(self) -> int:
        return len(self.data)

    @read_only
    def keys(self) -> List[str]:
        return sorted(self.data)

    def snapshot_state(self) -> dict:
        return {"data": dict(self.data)}

    def restore_state(self, state: dict) -> None:
        self.data = dict(state["data"])


class GlobeBed:
    """A ready-made world with repository, fake GLS and object servers.

    Used by core/GOS integration tests; the full-stack deployments in
    ``repro.gdn.deployment`` replace the fakes with real services.
    """

    def __init__(self, topology=None, seed=5):
        from repro.core.repository import (Implementation,
                                           ImplementationRepository)
        from repro.sim.world import World

        self.world = World(topology=topology or Topology.balanced(2, 2, 2, 2),
                           seed=seed)
        self.gls = FakeLocationService(self.world)
        self.repository = ImplementationRepository(self.world)
        self.repository.register(Implementation("test.kv", KvStore,
                                                code_size=10_000))
        #: name -> the object server's incarnation running now.
        self.object_servers = {}

    def gos(self, name, site, port=7100, **kwargs):
        """An object server installed on a new host ``name``: a restart
        of the host builds it again (find it in ``object_servers``)."""
        from repro.gos.server import GlobeObjectServer

        host = self.world.host(name, site)

        def boot():
            server = GlobeObjectServer(self.world, host, self.repository,
                                       self.gls, port=port, **kwargs)
            server.start()
            self.object_servers[name] = server
            return server

        return host.install(boot)

    def restart(self, server):
        """Crash ``server``'s host, restart it and wait out the new
        incarnation's reload; return the new incarnation."""
        server.host.crash()
        server.host.restart()
        server = self.object_servers[server.host.name]
        self.world.run_until(server.recovery, limit=self.world.now + 1e6)
        return server

    def runtime(self, host_name, site):
        from repro.core.runtime import Runtime

        host = self.world.host(host_name, site)
        return Runtime(self.world, host, self.gls, self.repository)

    def run(self, generator, host=None, limit=1e6):
        """Run a generator as a process and return its value."""
        process = (host.spawn(generator) if host is not None
                   else self.world.sim.process(generator))
        return self.world.run_until(process, limit=limit)


class Counter(WholeStateSemantics):
    """A counter whose state is tiny but whose ops are meaningful."""

    def __init__(self):
        self.count = 0

    @mutating
    def increment(self, by: int = 1) -> int:
        self.count += by
        return self.count

    @read_only
    def value(self) -> int:
        return self.count

    def snapshot_state(self) -> dict:
        return {"count": self.count}

    def restore_state(self, state: dict) -> None:
        self.count = state["count"]


class PackageBed(GlobeBed):
    """One package DSO, master/slave: the master in r0, a slave in r1,
    a writer beside the master and a caching reader beside the slave
    (bound to the slave, its nearest replica)."""

    MASTER_SITE = "r0/c0/m0/s0"
    SLAVE_SITE = "r1/c0/m0/s0"

    def __init__(self, seed=5, cache_ttl=0.5):
        from repro.core.repository import Implementation
        from repro.gdn.package import PACKAGE_IMPL_ID, PackageSemantics

        super().__init__(seed=seed)
        self.repository.register(Implementation(
            PACKAGE_IMPL_ID, PackageSemantics, code_size=10_000))
        self.cache_ttl = cache_ttl
        self.gos("gos-master", self.MASTER_SITE)
        self.gos("gos-slave", self.SLAVE_SITE)

        def build():
            master = yield from self.master_gos.create_local_replica(
                None, PACKAGE_IMPL_ID, "master_slave", "master")
            yield from self.slave_gos.create_local_replica(
                master.oid, PACKAGE_IMPL_ID, "master_slave", "slave",
                master=master.contact_address)
            return master.oid

        self.oid = self.run(build())
        self.writer = self.runtime("writer", "r0/c0/m0/s1")
        self.reader = self.runtime("reader", "r1/c0/m0/s1")
        self.gls.sort_site = self.reader.host.site

    @property
    def master_gos(self):
        return self.object_servers["gos-master"]

    @property
    def slave_gos(self):
        return self.object_servers["gos-slave"]

    @property
    def master(self):
        return self.master_gos.replicas[self.oid.hex]

    @property
    def slave(self):
        return self.slave_gos.replicas[self.oid.hex]

    @property
    def cache(self):
        return self.reader.bound[self.oid]

    def write(self, method, **args):
        """One write, through the master's object server; returns when
        the master has answered."""
        def invoke():
            lr = yield from self.writer.bind(self.oid)
            return (yield from lr.invoke(method, args))

        return self.run(invoke(), host=self.writer.host)

    def read(self):
        """One read through the caching reader (a pull when stale)."""
        def invoke():
            lr = yield from self.reader.bind(self.oid,
                                             cache_ttl=self.cache_ttl)
            return (yield from lr.invoke("listContents"))

        return self.run(invoke(), host=self.reader.host)

    def settle(self, duration=10.0):
        self.world.run(until=self.world.now + duration)

    def restart_slave(self):
        """Crash the slave's machine and bring it back: its object
        server reconstructs the slave, which re-joins the master."""
        self.restart(self.slave_gos)


def package_contents(lr):
    """Everything a package copy holds that replication must carry."""
    semantics = lr.semantics
    state = semantics.snapshot_state()
    return {"files": state["files"],
            "attributes": state["attributes"],
            "content_version": state["version"],
            "history": semantics.getHistory(),
            "version": lr.replication.version,
            "epoch": lr.replication.epoch}


def check_pointer_invariant(tree) -> None:
    """The GLS's structural invariant (§3.5), at every directory node
    of ``tree``: a node holds a record for an OID if and only if its
    parent holds a forwarding pointer to it, and no record is empty."""
    for path, subnodes in tree.nodes.items():
        for node in subnodes:
            for oid_hex, record in node.records.items():
                assert not record.empty, \
                    "empty record left at %r" % path
                # Every pointer names a child holding a record.
                for child_path in record.forwarding_pointers:
                    child = tree.node_for(child_path, oid_hex)
                    assert oid_hex in child.records, \
                        "dangling pointer %s -> %s" % (path, child_path)
                # Every non-root record is reachable from its parent.
                if node.parent is not None:
                    parent = tree.node_for(node.parent.domain_path,
                                           oid_hex)
                    assert path in parent.records[oid_hex] \
                        .forwarding_pointers, \
                        "unreachable record at %r" % path


def pending_deadlines(pool) -> int:
    """Deadlines a :class:`~repro.sim.deadlines.DeadlinePool` holds
    pending: what its ``.depth`` gauge reports."""
    return pool.armed_total - pool.cancelled_total - pool.expired_total


#: The committed trace corpus (see traces/README.md).
TRACE_DIR = pathlib.Path(__file__).parent / "traces"


def trace_replay(name: str, topology=None) -> TraceScenario:
    """Replay the committed trace ``name``: one JSON object per line
    (``time``, ``kind``, ``object``, ``site``), each an Arrival whose
    index is its line, its site resolved in ``topology`` if given."""
    with (TRACE_DIR / name).open() as fh:
        raws = [json.loads(line) for line in fh if line.strip()]
    site = topology.site if topology is not None else str
    return TraceScenario(
        [Arrival(index, float(raw["time"]), site(raw["site"]),
                 int(raw["object"]), raw["kind"])
         for index, raw in enumerate(raws)])
