"""A crash is a new incarnation: a restarted host's daemons are built
again from the deployment and the host's disk, and nothing else.

For the host of each daemon kind the test walks everything reachable
from the host's daemons before the crash and after the restart, and
checks by identity that the two share no mutable object.  What a
deployment configures is shared on purpose and the walk stops there:
the world (with its simulator, network and topology), the hosts and
what they own, the implementation repository and the code it installs
(interfaces), credentials and policy, keys and the GLS tree's node
handles, and the deployment's containers, which the moderator's tool
reads to find object servers by name.  The walk does not cross into
another host (an object whose ``host`` or ``local`` is another host,
such as the far end of a connection).  The disks are reached through
the hosts.
"""

import enum
import random
import types
from collections import deque

import pytest

from repro.core.idl import Interface, MethodSpec
from repro.core.repository import ImplementationRepository
from repro.gdn.deployment import GdnDeployment, standard_spec
from repro.gdn.scenario import ReplicationScenario
from repro.gls.node import NodeHandle
from repro.gns.dns.records import RRType
from repro.gns.dns.tsig import TsigKey, TsigKeyring
from repro.gns.gns import object_name_to_dns
from repro.security.acl import GdnPolicy, PrincipalRegistry
from repro.security.certs import CertificateAuthority, Credentials
from repro.sim.deadlines import shared_pool
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.topology import Domain
from repro.sim.transport import Host
from repro.sim.world import World
from repro.workloads.packages import synthetic_file

PACKAGE = "/apps/net/incarnation"
CONFIGURATION = (World, Simulator, Network, Domain, Host,
                 ImplementationRepository, Credentials, CertificateAuthority,
                 GdnPolicy, PrincipalRegistry, TsigKey, TsigKeyring,
                 NodeHandle, Interface, MethodSpec, enum.Enum)
ATOMS = (int, float, complex, str, bytes, bool, type(None), type,
         types.ModuleType, types.CodeType, range)


def _referents(value):
    """What ``value`` holds: container items, attributes, closures."""
    if isinstance(value, dict):
        return list(value.keys()) + list(value.values())
    if isinstance(value, (list, tuple, set, frozenset, deque)):
        return list(value)
    if isinstance(value, types.MethodType):
        return [value.__self__, value.__func__]
    if isinstance(value, types.FunctionType):
        return [cell.cell_contents for cell in value.__closure__ or ()
                if cell.cell_contents is not None] \
            + list(value.__defaults__ or ())
    if isinstance(value, types.GeneratorType):
        frame = value.gi_frame
        return list(frame.f_locals.values()) if frame is not None else []
    if isinstance(value, random.Random):
        return []
    held = list(getattr(value, "__dict__", {}).values())
    for cls in type(value).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if hasattr(value, slot):
                held.append(getattr(value, slot))
    return held


def _elsewhere(value, host) -> bool:
    """Whether ``value`` belongs to a host other than ``host``."""
    return any(isinstance(getattr(value, key, None), Host)
               and getattr(value, key) is not host
               for key in ("host", "local"))


def reachable(roots, host, stop) -> dict:
    """id -> object for every mutable object of ``host`` reachable from
    ``roots``, not passing through configuration, the objects in
    ``stop`` or another host's objects."""
    stop = stop | {id(owned) for owned in vars(host).values()}
    seen, found, queue = set(), {}, deque(roots)
    while queue:
        value = queue.popleft()
        if id(value) in seen or isinstance(value, ATOMS):
            continue
        seen.add(id(value))
        if isinstance(value, CONFIGURATION) or id(value) in stop \
                or type(value) is object or _elsewhere(value, host):
            continue
        if not isinstance(value, (tuple, frozenset, types.FunctionType,
                                  types.MethodType)):
            found[id(value)] = value
        queue.extend(_referents(value))
    return found


def daemons(host):
    return [daemon for _boot, daemon in host._installed]


def build():
    gdn = GdnDeployment.from_spec({
        **standard_spec(2, 2, 1, 2), "seed": 4, "secure": True,
        "gls_cache": {}, "moderators": {"mod": "r0/c0/m0/s1"}})
    moderator = gdn.moderators["mod"]
    oid = gdn.run(moderator.create_package(
        PACKAGE, {"README": synthetic_file("incarnation", 1_000)},
        ReplicationScenario.master_slave("gos-r0-0", ["gos-r1-0"],
                                         cache_ttl=5.0),
        attributes={"category": "net"}), host=moderator.host)
    gdn.settle(5.0)
    browser = gdn.add_browser("user", "r1/c1/m0/s1")
    assert gdn.run(browser.download(PACKAGE, "README"),
                   host=browser.host).ok
    return gdn, oid


def test_a_restarted_host_holds_nothing_of_its_last_incarnation_but_its_disk():
    gdn, oid = build()
    stop = {id(gdn.object_servers), id(gdn.httpds), id(gdn.moderators),
            id(gdn.lookup_caches), id(shared_pool(gdn.world.sim))}
    slave_host = gdn.object_servers["gos-r1-0"].host
    leaf_host = gdn.gls.node_for("r1/c0/m0/s0", oid.hex).host
    # The hosts as first built reload nothing.
    assert [host.recovery for host in (
        slave_host, leaf_host, gdn.dns_primary.host)] == [None] * 3
    hosts = {"GOS, HTTPD, runtime, resolver, lookup cache": slave_host,
             "GLS node": leaf_host,
             "DNS primary": gdn.dns_primary.host,
             "DNS secondary": gdn.dns_secondaries[0].host,
             "search": gdn.search.host,
             "authority": gdn.authority.host,
             "moderator": gdn.moderators["mod"].host}
    for kind, host in hosts.items():
        old = daemons(host)
        before = reachable(old, host, stop)
        disk = dict(host.disk)
        host.crash()
        host.restart()
        gdn.settle(10.0)
        new = daemons(host)
        assert len(new) == len(old) and not set(map(id, new)) & set(
            map(id, old)), kind
        shared = set(before) & set(reachable(new, host, stop))
        assert not shared, (kind, [type(before[key]).__name__
                                   for key in shared])
        assert host.disk == disk, kind  # the reloads wrote nothing new
        assert len(before) > 20, kind   # the walk saw the old daemons

    # What each disk held came back; what no disk held did not.
    slave = gdn.object_servers["gos-r1-0"]
    assert list(slave.replicas) == [oid.hex]
    assert slave.replicas[oid.hex].semantics.getFileContents("README") \
        == synthetic_file("incarnation", 1_000)
    httpd = next(h for h in gdn.httpds if h.host is slave_host)
    assert httpd.runtime.bound == {}
    assert len(gdn.lookup_caches[slave_host.name]) == 0
    assert gdn.repository.is_cached(slave_host, slave.replicas[
        oid.hex].contact_address.impl_id)  # installed code stays
    leaf = gdn.gls.node_for("r1/c0/m0/s0", oid.hex)
    assert oid.hex in leaf.records
    name = object_name_to_dns(PACKAGE, gdn.zone)
    for server in [gdn.dns_primary] + gdn.dns_secondaries:
        assert server.zones[gdn.zone].answer(name, RRType.TXT).answers, \
            server.host.name
    assert gdn.search._attributes == {}
    assert gdn.moderators["mod"].name_service.resolver._cache == {}


# -- a crash during a reload ------------------------------------------------


def test_a_crash_during_a_gos_reload_leaves_nothing_and_the_next_reloads_once():
    from tests.util import PackageBed, pending_deadlines

    bed = PackageBed()
    bed.write("addFile", path="a", data=b"before")
    bed.settle()
    host = bed.slave_gos.host
    host.crash()
    bed.write("addFile", path="b", data=b"missed")  # while the slave is down
    host.restart()
    reloading, recovery = bed.slave_gos, host.recovery
    sim = bed.world.sim
    while not reloading._records:
        sim.step()  # up to the end of the disk read
    bed.world.run(until=bed.world.now + 0.01)
    # The disk is read, and the slave's re-join is not yet answered.
    assert reloading._records and reloading.replicas == {}
    host.crash()
    assert recovery not in host._processes
    assert recovery.triggered and not host._processes
    host.restart()
    gos = bed.slave_gos
    bed.world.run_until(host.recovery, limit=bed.world.now + 1e6)
    bed.settle()
    assert list(gos.replicas) == [bed.oid.hex] and gos.persistence.reads == 1
    assert bed.slave.semantics.getFileContents("b") == b"missed"
    assert bed.slave.replication.version == bed.master.replication.version
    assert recovery not in host._processes
    assert pending_deadlines(shared_pool(sim)) == 0


def test_a_crash_during_a_gls_reload_leaves_nothing_and_the_next_reloads_once():
    from repro.gls.service import GlsClient
    from repro.gls.tree import GlsTree
    from repro.sim.stable import DISK_READ_LATENCY
    from repro.sim.topology import Topology
    from tests.util import check_pointer_invariant

    world = World(topology=Topology.balanced(2, 1, 1, 1), seed=3)
    tree = GlsTree(world)
    gos_host = world.host("gos-1", "r0/c0/m0/s0")
    client = GlsClient(world, gos_host, tree)
    oid_hex = world.run_until(gos_host.spawn(client.register(None, {
        "host": "gos-1", "port": 7100, "protocol": "client_server"})))
    leaf = tree.node_for("r0/c0/m0/s0", oid_hex)
    stored = {key: record.to_wire() for key, record in leaf.records.items()}
    host = leaf.host
    host.crash()
    host.restart()
    reloading, recovery = tree.node_for("r0/c0/m0/s0", oid_hex), host.recovery
    world.run(until=world.now + DISK_READ_LATENCY / 2)  # the read in flight
    host.crash()
    assert reloading.records == {} and not host._processes
    assert recovery.triggered
    host.restart()
    leaf = tree.node_for("r0/c0/m0/s0", oid_hex)
    world.run_until(host.recovery, limit=world.now + 1e6)
    assert {key: record.to_wire() for key, record in leaf.records.items()} \
        == stored
    assert leaf.persistence.reads == 1 and reloading.persistence.reads == 0
    assert recovery not in host._processes
    check_pointer_invariant(tree)


@pytest.mark.parametrize("reloaded_first", ["master", "slave"])
def test_two_hosts_holding_slaves_of_each_others_masters_restart_together(
        reloaded_first):
    # No reload waits on another host: each host's slave re-joins the
    # other host's master, which answers once its own host has
    # reloaded, so a reload that held its host through the re-join
    # would wait for ever on the other.  ``reloaded_first`` is what
    # the disk of the host that was up through the write brings back
    # first (records reload in creation order).
    from tests.util import GlobeBed

    bed = GlobeBed()
    east = bed.gos("gos-east", "r0/c0/m0/s0")
    west = bed.gos("gos-west", "r1/c0/m0/s0")
    runtime = bed.runtime("writer", "r1/c0/m0/s1")

    def master_and_slave(home, away):
        master = yield from home.create_local_replica(
            None, "test.kv", "master_slave", "master")
        yield from away.create_local_replica(
            master.oid, "test.kv", "master_slave", "slave",
            master=master.contact_address)
        return master.oid

    def write(oid, value):
        representative = yield from runtime.bind(oid)
        yield from representative.invoke("put", {"key": "k", "value": value})

    pairs = [(east, west), (west, east)]
    if reloaded_first == "master":
        pairs.reverse()
    oids = {home.host.name: bed.run(master_and_slave(home, away))
            for home, away in pairs}
    east_oid, west_oid = oids["gos-east"], oids["gos-west"]
    bed.run(write(east_oid, "east"), host=runtime.host)
    bed.run(write(west_oid, "west"), host=runtime.host)
    bed.world.run(until=bed.world.now + 1.0)  # pushed to the slaves
    east.host.crash()
    bed.run(write(west_oid, "missed"), host=runtime.host)
    bed.world.run(until=bed.world.now + 1.0)  # its checkpoint is on disk
    west.host.crash()
    east.host.restart()
    west.host.restart()
    for host in (east.host, west.host):
        bed.world.run_until(host.recovery, limit=bed.world.now + 60.0)
    east, west = bed.object_servers["gos-east"], bed.object_servers["gos-west"]
    for oid, home, away, value in ((east_oid, east, west, "east"),
                                   (west_oid, west, east, "missed")):
        assert home.replicas[oid.hex].semantics.data == {"k": value}
        assert away.replicas[oid.hex].semantics.data == {"k": value}


def test_a_replica_removed_as_its_host_comes_back_stays_out_of_the_gls():
    # A restarted GOS registers its replicas again one after another
    # once its host answers; a remove_replica served before a
    # replica's turn must not be undone by that registration.
    from repro.sim import rpc

    gdn = GdnDeployment.from_spec({
        **standard_spec(2, 2, 1, 2), "seed": 4, "secure": False,
        "moderators": {"mod": "r0/c0/m0/s1"}})
    moderator = gdn.moderators["mod"]
    scenario = ReplicationScenario.single_server("gos-r0-0")
    kept, removed = (gdn.run(moderator.create_package(
        "/apps/p%d" % index, {"f": b"x"}, scenario),
        host=moderator.host).hex for index in range(2))
    gdn.settle(5.0)
    host = gdn.object_servers["gos-r0-0"].host
    host.crash()
    host.restart()
    while not host.reloaded.triggered:
        gdn.world.sim.step()
    gos = gdn.object_servers["gos-r0-0"]
    tool = gdn.world.host("tool", "r0/c0/m0/s0")
    removal = tool.spawn(rpc.call(tool, host, gos.port, "remove_replica",
                                  {"oid": removed}))
    while removed in gos.replicas:
        gdn.world.sim.step()
    assert host.recovery.alive  # the registrations are still running
    gdn.settle(30.0)
    assert removal.value == {"removed": removed}
    assert list(gos.replicas) == [kept]
    for subnodes in gdn.gls.nodes.values():
        for node in subnodes:
            if removed in node.records:
                assert not node.records[removed].contact_addresses, \
                    node.host.name


def test_a_restarted_object_server_allocates_no_oid_twice():
    # A rebuilt GLS client draws its OIDs from a stream of its own
    # incarnation: the first incarnation's stream would hand out the
    # OID of the first package created there again.
    gdn = GdnDeployment.from_spec({
        **standard_spec(2, 2, 1, 2), "seed": 4, "secure": False,
        "moderators": {"mod": "r0/c0/m0/s1"}})
    moderator = gdn.moderators["mod"]
    scenario = ReplicationScenario.single_server("gos-r0-0")
    first = gdn.run(moderator.create_package(
        "/apps/first", {"f": b"1"}, scenario), host=moderator.host)
    host = gdn.object_servers["gos-r0-0"].host
    host.crash()
    host.restart()
    gdn.settle(5.0)
    second = gdn.run(moderator.create_package(
        "/apps/second", {"f": b"2"}, scenario), host=moderator.host)
    assert second != first
