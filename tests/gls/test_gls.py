"""Integration tests for the Globe Location Service."""

import pytest

from repro.core.ids import ContactAddress
from repro.gls.service import GlsClient, GlsError
from repro.gls.tree import GlsTree
from repro.sim.topology import Level, Topology
from repro.sim.world import World
from tests.lossy import DatagramMeddler
from tests.util import oid_from_seed, pending_deadlines


def make_world(seed=21):
    topo = Topology.balanced(regions=2, countries=2, cities=2, sites=2)
    return World(topology=topo, seed=seed)


def run(world, generator, host=None, limit=1e6):
    process = (host.spawn(generator) if host is not None
               else world.sim.process(generator))
    return world.run_until(process, limit=limit)


def ca_wire(world, host, role="server"):
    return ContactAddress(host.name, 7100, "client_server", role=role,
                          impl_id="test.kv",
                          site_path=host.site.path).to_wire()


@pytest.fixture
def deployment():
    world = make_world()
    tree = GlsTree(world)
    return world, tree


def test_a_node_refuses_a_transport_and_a_handle_an_empty_node():
    from repro.gls.node import GlsNodeError, NodeHandle

    with pytest.raises(GlsNodeError, match="transport"):
        GlsTree(make_world(), transport="quic")
    with pytest.raises(GlsNodeError, match="at least one endpoint"):
        NodeHandle("r0", [])


def test_a_node_refuses_a_pointer_from_a_domain_not_its_child(deployment):
    from repro.sim.rpc import RpcFault, UdpRpcClient

    world, tree = deployment
    oid_hex = oid_from_seed("stray").hex
    node = tree.node_for("r0/c0", oid_hex)
    host = world.host("intruder", "r0/c0/m0/s1")
    client = UdpRpcClient(host, timeout=1.0, retries=0)

    def attempt(method):
        try:
            return (yield from client.call(node.host, node.port, method,
                                           {"oid": oid_hex, "child": "r1"}))
        except RpcFault as fault:
            return fault.kind

    assert run(world, attempt("insert_pointer"), host=host) == "GlsNodeError"
    assert oid_hex not in node.records
    # Unlinking what is not there is answered as a no-op, and the root
    # answers a delete of an address it never heard of as not removed.
    assert run(world, attempt("delete_pointer"), host=host) \
        == {"unlinked_at": "r0/c0", "noop": True}
    root = tree.node_for("", oid_hex)
    assert run(world, client.call(root.host, root.port, "delete", {
        "oid": oid_hex, "ca": ca_wire(world, host)}), host=host) \
        == {"removed": False}


def test_recovery_keeps_only_the_stored_records(deployment):
    from repro.gls.records import NodeRecord

    world, tree = deployment
    node = tree.node_for("r0/c0/m0/s0", oid_from_seed("x").hex)
    node.records["never-stored"] = NodeRecord()
    node.host.crash()
    node.host.restart()
    node = tree.node_for("r0/c0/m0/s0", oid_from_seed("x").hex)
    world.run_until(node.recovery, limit=world.now + 1e6)
    assert "never-stored" not in node.records


def test_tree_has_a_node_per_domain(deployment):
    world, tree = deployment
    # 16 sites + 8 cities + 4 countries + 2 regions + 1 root = 31
    assert len(tree.nodes) == 31
    assert len(tree.root_nodes()) == 1
    for path, subnodes in tree.nodes.items():
        for node in subnodes:
            assert node.domain.path == path


def test_register_creates_pointer_path_to_root(deployment):
    world, tree = deployment
    gos_host = world.host("gos-1", "r0/c0/m0/s0")
    client = GlsClient(world, gos_host, tree)
    oid_hex = run(world, client.register(None, ca_wire(world, gos_host)),
                  host=gos_host)

    leaf = tree.node_for("r0/c0/m0/s0", oid_hex)
    assert oid_hex in leaf.records
    assert leaf.records[oid_hex].contact_addresses
    for path in ("r0/c0/m0", "r0/c0", "r0", ""):
        node = tree.node_for(path, oid_hex)
        assert oid_hex in node.records, path
        assert node.records[oid_hex].forwarding_pointers
    # A second address at the same leaf lays no pointer again.
    parent = tree.node_for("r0/c0/m0", oid_hex)
    updates = parent.pointer_updates
    other = world.host("gos-2", "r0/c0/m0/s0")
    run(world, GlsClient(world, other, tree).register(
        oid_hex, ca_wire(world, other)), host=other)
    assert len(leaf.records[oid_hex].contact_addresses) == 2
    assert parent.pointer_updates == updates


def test_lookup_same_site_is_local(deployment):
    world, tree = deployment
    gos_host = world.host("gos-1", "r0/c0/m0/s0")
    client = GlsClient(world, gos_host, tree)
    oid_hex = run(world, client.register(None, ca_wire(world, gos_host)),
                  host=gos_host)

    user = world.host("user-1", "r0/c0/m0/s0")
    user_client = GlsClient(world, user, tree)
    reply = run(world, user_client.lookup_detailed(oid_hex), host=user)
    assert reply["hops"] == 0
    assert reply["found"] == "r0/c0/m0/s0"
    assert reply["cas"][0]["host"] == "gos-1"


def test_a_walk_down_to_a_node_without_the_record_answers_not_found(
        deployment):
    # A tree inconsistency: the city node still points down to the
    # replica's leaf, but the leaf lost its record.  The walk down ends
    # there with an empty answer, not a fault.
    world, tree = deployment
    gos_host = world.host("gos-1", "r0/c0/m0/s0")
    client = GlsClient(world, gos_host, tree)
    oid_hex = run(world, client.register(None, ca_wire(world, gos_host)),
                  host=gos_host)
    del tree.node_for("r0/c0/m0/s0", oid_hex).records[oid_hex]
    assert tree.node_for("r0/c0/m0", oid_hex).records[oid_hex] \
        .forwarding_pointers

    user = world.host("user-1", "r0/c0/m0/s1")
    reply = run(world, GlsClient(world, user, tree).lookup_detailed(oid_hex),
                host=user)
    assert reply["cas"] == [] and reply["found"] is None


def test_lookup_hops_grow_with_distance(deployment):
    world, tree = deployment
    gos_host = world.host("gos-1", "r0/c0/m0/s0")
    client = GlsClient(world, gos_host, tree)
    oid_hex = run(world, client.register(None, ca_wire(world, gos_host)),
                  host=gos_host)

    hops_by_distance = []
    for i, site in enumerate(["r0/c0/m0/s0", "r0/c0/m0/s1", "r0/c0/m1/s0",
                              "r0/c1/m0/s0", "r1/c0/m0/s0"]):
        user = world.host("user-%d" % i, site)
        user_client = GlsClient(world, user, tree)
        reply = run(world, user_client.lookup_detailed(oid_hex), host=user)
        assert reply["cas"], site
        hops_by_distance.append(reply["hops"])
    assert hops_by_distance == sorted(hops_by_distance)
    assert hops_by_distance[0] == 0
    assert hops_by_distance[-1] > hops_by_distance[0]


def test_lookup_unknown_oid_returns_empty(deployment):
    world, tree = deployment
    user = world.host("user-1", "r0/c0/m0/s0")
    client = GlsClient(world, user, tree)
    reply = run(world, client.lookup_detailed(oid_from_seed("ghost").hex),
                host=user)
    assert reply["cas"] == []
    assert reply["found"] is None


def test_multiple_replicas_nearest_first(deployment):
    world, tree = deployment
    near_gos = world.host("gos-near", "r0/c0/m0/s1")
    far_gos = world.host("gos-far", "r1/c0/m0/s0")
    near_client = GlsClient(world, near_gos, tree)
    far_client = GlsClient(world, far_gos, tree)
    oid_hex = run(world, near_client.register(
        None, ca_wire(world, near_gos, role="master")), host=near_gos)
    run(world, far_client.register(
        oid_hex, ca_wire(world, far_gos, role="slave")), host=far_gos)

    user = world.host("user-1", "r0/c0/m0/s0")
    user_client = GlsClient(world, user, tree)
    wires = run(world, user_client.lookup(oid_hex), host=user)
    # The GLS walk finds the near replica's record first (one hop up);
    # even if both were returned, sorting puts the near one first.
    assert wires[0]["host"] == "gos-near"


def test_second_replica_stops_pointer_propagation_early(deployment):
    world, tree = deployment
    gos_a = world.host("gos-a", "r0/c0/m0/s0")
    gos_b = world.host("gos-b", "r0/c0/m1/s0")  # same city tree branch
    client_a = GlsClient(world, gos_a, tree)
    client_b = GlsClient(world, gos_b, tree)
    oid_hex = run(world, client_a.register(None, ca_wire(world, gos_a)),
                  host=gos_a)
    root = tree.node_for("", oid_hex)
    root_updates_before = root.pointer_updates
    run(world, client_b.register(oid_hex, ca_wire(world, gos_b)),
        host=gos_b)
    # The country node r0/c0 already had a record; propagation stopped
    # there and the root saw no new pointer traffic.
    assert root.pointer_updates == root_updates_before
    country = tree.node_for("r0/c0", oid_hex)
    assert len(country.records[oid_hex].forwarding_pointers) == 2


def test_delete_cleans_up_pointer_path(deployment):
    world, tree = deployment
    gos_host = world.host("gos-1", "r0/c0/m0/s0")
    client = GlsClient(world, gos_host, tree)
    wire = ca_wire(world, gos_host)
    oid_hex = run(world, client.register(None, wire), host=gos_host)
    run(world, client.unregister(oid_hex, wire), host=gos_host)
    for path in ("r0/c0/m0/s0", "r0/c0/m0", "r0/c0", "r0", ""):
        node = tree.node_for(path, oid_hex)
        assert oid_hex not in node.records, path


def test_delete_keeps_other_replica_reachable(deployment):
    world, tree = deployment
    gos_a = world.host("gos-a", "r0/c0/m0/s0")
    gos_b = world.host("gos-b", "r1/c0/m0/s0")
    client_a = GlsClient(world, gos_a, tree)
    client_b = GlsClient(world, gos_b, tree)
    wire_a = ca_wire(world, gos_a)
    oid_hex = run(world, client_a.register(None, wire_a), host=gos_a)
    run(world, client_b.register(oid_hex, ca_wire(world, gos_b)), host=gos_b)
    run(world, client_a.unregister(oid_hex, wire_a), host=gos_a)

    user = world.host("user-1", "r0/c0/m0/s1")
    user_client = GlsClient(world, user, tree)
    wires = run(world, user_client.lookup(oid_hex), host=user)
    assert [w["host"] for w in wires] == ["gos-b"]


def test_store_level_places_address_at_intermediate_node(deployment):
    """§3.5: mobile objects store addresses at intermediate nodes."""
    world, tree = deployment
    gos_host = world.host("gos-1", "r0/c0/m0/s0")
    client = GlsClient(world, gos_host, tree)
    wire = ca_wire(world, gos_host)
    oid_hex = run(world, client.register(None, wire,
                                         store_level=int(Level.COUNTRY)),
                  host=gos_host)
    leaf = tree.node_for("r0/c0/m0/s0", oid_hex)
    assert oid_hex not in leaf.records
    country = tree.node_for("r0/c0", oid_hex)
    assert country.records[oid_hex].contact_addresses
    # A client elsewhere in the country still resolves it.
    user = world.host("user-1", "r0/c0/m1/s1")
    user_client = GlsClient(world, user, tree)
    reply = run(world, user_client.lookup_detailed(oid_hex), host=user)
    assert reply["cas"][0]["host"] == "gos-1"
    assert reply["found"] == "r0/c0"


def test_partitioned_root_spreads_records(deployment_seed=33):
    world = make_world(seed=deployment_seed)
    tree = GlsTree(world, partition={"": 4})
    assert len(tree.root_nodes()) == 4
    gos_host = world.host("gos-1", "r0/c0/m0/s0")
    client = GlsClient(world, gos_host, tree)

    def register_many():
        for i in range(40):
            yield from client.register(None, ca_wire(world, gos_host))

    run(world, register_many(), host=gos_host)
    counts = [len(node.records) for node in tree.root_nodes()]
    assert sum(counts) == 40
    assert max(counts) < 40  # actually spread over subnodes
    assert min(counts) > 0


def test_unauthorized_registration_rejected():
    world = make_world(seed=5)
    tree = GlsTree(world, auth_key=b"gdn-secret")
    gos_host = world.host("gos-legit", "r0/c0/m0/s0")
    attacker_host = world.host("attacker", "r0/c0/m0/s1")
    legit = GlsClient(world, gos_host, tree, auth_key=b"gdn-secret")
    no_key = GlsClient(world, attacker_host, tree)
    wrong_key = GlsClient(world, attacker_host, tree, auth_key=b"guess")

    oid_hex = run(world, legit.register(None, ca_wire(world, gos_host)),
                  host=gos_host)
    assert oid_hex is not None

    def attack(client):
        try:
            yield from client.register(None, ca_wire(world, attacker_host))
            return "accepted"
        except GlsError:
            return "rejected"

    assert run(world, attack(no_key), host=attacker_host) == "rejected"
    assert run(world, attack(wrong_key), host=attacker_host) == "rejected"
    leaf = tree.nodes["r0/c0/m0/s1"][0]
    assert leaf.rejected_mutations == 2

    def erase(client):
        try:
            yield from client.unregister(oid_hex, ca_wire(world, gos_host))
            return "accepted"
        except GlsError:
            return "rejected"

    assert run(world, erase(no_key), host=attacker_host) == "rejected"
    assert leaf.rejected_mutations == 3


def test_node_crash_recovery_restores_records(deployment):
    world, tree = deployment
    gos_host = world.host("gos-1", "r0/c0/m0/s0")
    client = GlsClient(world, gos_host, tree)
    oid_hex = run(world, client.register(None, ca_wire(world, gos_host)),
                  host=gos_host)

    leaf = tree.node_for("r0/c0/m0/s0", oid_hex)
    leaf.host.crash()
    leaf.host.restart()
    leaf = tree.node_for("r0/c0/m0/s0", oid_hex)
    assert leaf.records == {}  # nothing but the disk outlives the crash
    world.run_until(leaf.recovery, limit=world.now + 1e6)
    assert oid_hex in leaf.records
    # And lookups work again end-to-end.
    user = world.host("user-1", "r0/c0/m0/s1")
    user_client = GlsClient(world, user, tree)
    reply = run(world, user_client.lookup_detailed(oid_hex), host=user)
    assert reply["cas"][0]["host"] == "gos-1"


def test_allocated_oids_are_unique(deployment):
    world, tree = deployment
    gos_host = world.host("gos-1", "r0/c0/m0/s0")
    client = GlsClient(world, gos_host, tree)

    def register_many():
        oids = []
        for _ in range(20):
            oid_hex = yield from client.register(
                None, ca_wire(world, gos_host))
            oids.append(oid_hex)
        return oids

    oids = run(world, register_many(), host=gos_host)
    assert len(set(oids)) == 20


def test_lookup_latency_proportional_to_distance(deployment):
    """The §3.5 claim behind experiment E2, in miniature."""
    world, tree = deployment
    gos_host = world.host("gos-1", "r0/c0/m0/s0")
    client = GlsClient(world, gos_host, tree)
    oid_hex = run(world, client.register(None, ca_wire(world, gos_host)),
                  host=gos_host)

    def timed_lookup(user):
        user_client = GlsClient(world, user, tree)
        start = world.now
        yield from user_client.lookup_detailed(oid_hex)
        return world.now - start

    near = world.host("user-near", "r0/c0/m0/s0")
    far = world.host("user-far", "r1/c1/m1/s1")
    near_time = run(world, timed_lookup(near), host=near)
    far_time = run(world, timed_lookup(far), host=far)
    assert far_time > near_time * 3


# -- what a walk costs the kernel -------------------------------------------


def _registered(world, tree):
    gos_host = world.host("gos-1", "r0/c0/m0/s0")
    client = GlsClient(world, gos_host, tree)
    return run(world, client.register(None, ca_wire(world, gos_host)),
               host=gos_host)


def test_a_lookup_found_here_is_served_with_no_process(deployment):
    world, tree = deployment
    oid_hex = _registered(world, tree)
    leaf = tree.node_for("r0/c0/m0/s0", oid_hex)
    handle_lookup = leaf._server.handlers["lookup"]
    owned = []

    def watched(ctx, args):
        owned.append(len(leaf.host._processes))
        reply = yield from handle_lookup(ctx, args)
        return reply

    leaf._server.handlers["lookup"] = watched
    user = world.host("user-1", "r0/c0/m0/s0")
    user_client = GlsClient(world, user, tree)
    world.run()
    resident = len(leaf.host._processes)
    before = world.sim.events_processed
    reply = world.run_until(user.start(user_client.lookup_detailed(oid_hex)),
                            limit=1e6)
    assert reply["found"] == "r0/c0/m0/s0"
    assert owned == [resident]
    # The request's arrival, the reply's arrival, the caller's waiter.
    assert world.sim.events_processed - before == 3
    assert len(leaf.host._processes) == resident


def test_a_nine_node_walk_costs_its_messages_and_its_waiters(deployment):
    """Up four levels to the root, down four: nine requests (the
    caller's and eight forwards), one reply from the node holding the
    record straight to the caller, one waiter resumed — 11 events and
    10 messages.  It was 27 and 18 when every node waited on its own
    upstream call, and 46 before that.  At no step does a node on the
    way hold a process, a pending call or a deadline."""
    world, tree = deployment
    oid_hex = _registered(world, tree)
    user = world.host("user-1", "r1/c0/m0/s0")
    user_client = GlsClient(world, user, tree)
    world.run()
    nodes = [node for subnodes in tree.nodes.values() for node in subnodes]
    resident = {host: len(host._processes) for host in world.hosts.values()}
    handled = {node: node.lookups_handled for node in nodes}
    before = world.sim.events_processed
    messages = world.network.meter.total_messages
    walk = user.start(user_client.lookup_detailed(oid_hex))
    while not walk.triggered:
        world.sim.step()
        for node in nodes:
            assert len(node.host._processes) == resident[node.host]
            assert not node._client._pending
            assert pending_deadlines(node._client.deadline_pool) == 0
    reply = walk.value
    assert (reply["found"], reply["hops"]) == ("r0/c0/m0/s0", 8)
    assert world.sim.events_processed - before == 9 + 1 + 1
    assert world.network.meter.total_messages - messages == 9 + 1
    walked = sorted(node.domain.path for node in nodes
                    if node.lookups_handled == handled[node] + 1)
    assert walked == ["", "r0", "r0/c0", "r0/c0/m0", "r0/c0/m0/s0",
                      "r1", "r1/c0", "r1/c0/m0", "r1/c0/m0/s0"]
    assert sum(node.lookups_handled - handled[node] for node in nodes) == 9


def test_a_nine_node_tcp_walk_still_nests_its_calls():
    """Ablation A3's arm keeps connect-call-close per hop: the same
    walk costs 95 events and 45 messages, as it did before lookups
    were forwarded over datagrams."""
    world = make_world()
    tree = GlsTree(world, transport="tcp")
    oid_hex = _registered(world, tree)
    user = world.host("user-1", "r1/c0/m0/s0")
    user_client = GlsClient(world, user, tree)
    world.run()
    before = world.sim.events_processed
    messages = world.network.meter.total_messages
    reply = world.run_until(user.start(user_client.lookup_detailed(oid_hex)),
                            limit=1e6)
    assert (reply["found"], reply["hops"]) == ("r0/c0/m0/s0", 8)
    assert world.sim.events_processed - before == 95
    assert world.network.meter.total_messages - messages == 45


def test_a_node_that_crashes_its_own_host_mid_walk_is_killed(deployment):
    """The datagram twin of an RpcServer handler crashing its host: the
    handler, started in the arrival's frame, is killed at its first
    wait, at the crash instant; the walk ends in the callers' retries
    and nothing is left behind."""
    from repro.sim.rpc import RpcTimeout

    world, tree = deployment
    oid_hex = _registered(world, tree)
    city = tree.node_for("r1/c0/m0", oid_hex)
    handle_lookup = city._server.handlers["lookup"]
    trail = []

    def poisoned(ctx, args):
        city.host.crash()
        trail.append(("crashed", world.now))
        try:
            yield world.sim.timeout(0.01)   # say, a write to its disk
            trail.append("resumed on a dead host")
            reply = yield from handle_lookup(ctx, args)
            return reply
        finally:
            trail.append(("closed", world.now))

    city._server.handlers["lookup"] = poisoned
    user = world.host("user-1", "r1/c0/m0/s0")
    user_client = GlsClient(world, user, tree)

    def lookup():
        try:
            yield from user_client.lookup_detailed(oid_hex)
        except (GlsError, RpcTimeout) as exc:
            return type(exc).__name__, world.now

    outcome = run(world, lookup(), host=user)
    world.run()
    assert outcome[0] in ("GlsError", "RpcTimeout")
    crashed_at = trail[0][1]
    assert trail == [("crashed", crashed_at), ("closed", crashed_at)]
    assert outcome[1] > crashed_at
    assert not city.host.up and not city.host._processes
    assert world.sim.heap_size == 0


def test_a_directory_node_survives_stop_start_cycles(deployment):
    """Regression: a node stopped before its serve loop first ran ended
    the run with AttributeError, and every stop left its server's and
    its client's loops parked with the host."""
    world, tree = deployment
    leaf = tree.nodes["r0/c0/m0/s0"][0]
    leaf.stop()     # before its loops first ran
    leaf.start()
    world.run()
    oid_hex = _registered(world, tree)
    world.run()
    resident, heap = len(leaf.host._processes), world.sim.heap_size
    for _cycle in range(5):
        leaf.stop()
        leaf.start()
        world.run()
    assert len(leaf.host._processes) == resident
    assert world.sim.heap_size == heap
    user = world.host("user-1", "r0/c0/m0/s1")
    reply = run(world, GlsClient(world, user, tree).lookup_detailed(oid_hex),
                host=user)
    assert reply["found"] == "r0/c0/m0/s0"


LATE_INSERT_REASON = ("ROADMAP item 15, 'Late and replayed mutations': "
                      "GLS mutations carry no order, so a held-back "
                      "insert re-registers an address deleted after it")


@pytest.mark.xfail(strict=True, reason=LATE_INSERT_REASON)
def test_a_late_insert_does_not_bring_back_an_unregistered_address():
    """The first ``insert`` datagram is held 20 s.  The client times out
    (8 s), its retry registers and ``unregister`` deletes the address;
    then the held insert arrives and must not store the address
    again."""
    world = World(Topology.balanced(2, 2, 2, 2), seed=99)
    tree = GlsTree(world)
    gos_host = world.host("gos-1", "r0/c0/m0/s0")
    client = GlsClient(world, gos_host, tree)
    address = ca_wire(world, gos_host)
    DatagramMeddler(world.network, gos_host.site, late=[0], delay=20.0)
    oid_hex = run(world, client.register(None, address), host=gos_host)
    assert 8.0 < world.now < 8.1  # the retry registered
    run(world, client.unregister(oid_hex, address), host=gos_host)
    assert world.now < 20.0  # before the held insert arrives
    user = world.host("user-1", "r1/c1/m1/s1")

    def look_later():
        yield world.sim.timeout(80.0)
        found = yield from GlsClient(world, user, tree).lookup(oid_hex)
        return found

    assert run(world, look_later(), host=user) == []
