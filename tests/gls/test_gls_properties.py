"""Property-based tests for GLS tree invariants.

The paper's lookup algorithm rests on one structural invariant: *a node
holds a record for an OID if and only if its parent holds a forwarding
pointer leading to it* (the "tree of forwarding pointers from the
root").  We drive random register/unregister schedules against a live
service and verify, after every settle, that

1. the pointer-path invariant holds at every directory node,
2. every currently registered contact address is resolvable from any
   site, and
3. fully unregistered objects leave no residue anywhere.

Lookups are forwarded node to node and answered once, so a lookup that
loses a datagram anywhere on its walk is recovered by the caller's own
retry and by nothing else.  A second property runs the same schedules,
then resolves every object while a fifth of the REGION and WORLD
datagrams are lost.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ids import ContactAddress, ObjectId
from repro.gls.service import GlsClient
from repro.gls.tree import GlsTree
from repro.sim.topology import Level, Topology
from repro.sim.world import World
from tests.util import check_pointer_invariant

SITES = ["r0/c0/m0/s0", "r0/c0/m1/s0", "r0/c1/m0/s0",
         "r1/c0/m0/s0", "r1/c1/m1/s1"]

# A schedule: per object, a subset of sites to register at, then a
# subset of those to unregister.
_schedules = st.lists(
    st.tuples(st.sets(st.sampled_from(SITES), min_size=1, max_size=3),
              st.sets(st.sampled_from(SITES), max_size=3)),
    min_size=1, max_size=5)


def _apply(schedule):
    """A world with ``schedule`` registered and unregistered, and the
    sites each object is still registered at."""
    world = World(topology=Topology.balanced(2, 2, 2, 2), seed=99)
    tree = GlsTree(world)
    clients = {}
    hosts = {}
    for index, site in enumerate(SITES):
        host = world.host("gos-%d" % index, site)
        hosts[site] = host
        clients[site] = GlsClient(world, host, tree)

    def wire(site):
        host = hosts[site]
        return ContactAddress(host.name, 7100, "client_server",
                              role="server", impl_id="x",
                              site_path=site).to_wire()

    live = {}  # oid -> set of registered sites

    def driver():
        for register_at, unregister_at in schedule:
            oid_hex = None
            for site in sorted(register_at):
                oid_hex = yield from clients[site].register(
                    oid_hex, wire(site))
            live[oid_hex] = set(register_at)
            for site in sorted(unregister_at & register_at):
                yield from clients[site].unregister(oid_hex, wire(site))
                live[oid_hex].discard(site)

    world.run_until(world.sim.process(driver()), limit=1e9)
    return world, tree, live


def _resolve_all(world, prober, live):
    """The sites each object in ``live`` resolves to from ``prober``."""

    def probe():
        outcomes = {}
        for oid_hex in live:
            reply = yield from prober.lookup_detailed(oid_hex)
            outcomes[oid_hex] = {w["site"] for w in reply["cas"]}
        return outcomes

    return world.run_until(prober.host.spawn(probe()), limit=1e9)


def _check_resolution(tree, live, outcomes):
    for oid_hex, sites in live.items():
        if sites:
            assert outcomes[oid_hex], "live object unresolvable"
            assert outcomes[oid_hex].issubset(sites)
        else:
            assert not outcomes[oid_hex], "ghost object resolvable"
            # And no residue in any node.
            for subnodes in tree.nodes.values():
                for node in subnodes:
                    assert oid_hex not in node.records


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schedule=_schedules)
def test_random_schedules_preserve_invariants(schedule):
    world, tree, live = _apply(schedule)
    check_pointer_invariant(tree)

    # Every surviving registration resolves from everywhere; fully
    # removed objects resolve nowhere.
    prober_host = world.host("prober", "r1/c0/m1/s0")
    prober = GlsClient(world, prober_host, tree)
    _check_resolution(tree, live, _resolve_all(world, prober, live))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schedule=_schedules)
def test_lookups_over_a_lossy_network_resolve_through_caller_retries(
        schedule):
    world, tree, live = _apply(schedule)
    loss = world.network.params.loss
    loss[Level.REGION] = loss[Level.WORLD] = 0.2
    # A walk from the prober crosses up to seven lossy links; thirty
    # retries leave a lookup about one chance in a million to fail.
    prober_host = world.host("prober", "r1/c0/m1/s0")
    prober = GlsClient(world, prober_host, tree, timeout=2.0, retries=30)
    dropped = world.network.meter.dropped_messages
    for _round in range(4):
        _check_resolution(tree, live, _resolve_all(world, prober, live))
    check_pointer_invariant(tree)
    # Each lost datagram cost its lookup one attempt, which the prober
    # retried; no directory node retried anything.
    dropped = world.network.meter.dropped_messages - dropped
    assert (dropped > 0) == (prober._client.retries_sent > 0)
    assert prober._client.retries_sent <= dropped
    assert all(node._client.retries_sent == 0
               for subnodes in tree.nodes.values() for node in subnodes)
