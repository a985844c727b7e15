"""E1's back-of-envelope twin: each client-role cell predicted in
closed form from the simulator's own constants.

E1 times ``listContents`` and ``getFileContents(64KB)`` through a
client-role representative bound to the one replica, from sites at
growing separation.  A forwarded call is one request and one reply on
a pooled channel, so at separation level L it costs

    2 × latency(L) + (request bytes + reply bytes) / bandwidth(L)

with the bytes each message is charged: its envelope's
:func:`~repro.sim.serde.encoded_size` (the invocation and the result
marshalled as the DSO marshals them) plus the transport's framing.
E1 runs without jitter, so the only slack the twin needs is float
rounding.

One mechanism the per-call formula misses, named here rather than
fudged: the client's channel to the replica is opened by the first
call it makes, so the first ``listContents`` also pays the connect
handshake (a SYN and a SYN-ACK of framing alone, one round trip), and
E1 reports the mean over ``calls_per_point`` calls.
"""

import random

import pytest

from repro.core.ids import ObjectId
from repro.core.marshal import marshal_invocation, marshal_result
from repro.core.subobjects import CommunicationSubobject
from repro.experiments import e1_dso_invocation as e1
from repro.gdn.package import PackageSemantics
from repro.sim import network
from repro.sim.network import LinkParameters
from repro.sim.serde import HEADER_OVERHEAD, encoded_size
from repro.sim.topology import Level, Topology

#: Relative, named before the first comparison.  E1 has no jitter and
#: no queueing, so a prediction that is right agrees to float rounding;
#: a missed mechanism shows as whole per-cents (the handshake alone is
#: 5 % of every listContents cell).
TOLERANCE = 0.001
#: Where E1 places the one replica (its GOS ``gos-main``).
REPLICA_SITE = "r0/c0/m0/s0"
#: E1's topology, as its spec gives it.
TOPOLOGY = (2, 2, 1, 2)
CALLS = 20


def _wire(envelope) -> int:
    """Bytes a message is charged on a connection."""
    return encoded_size(envelope) + HEADER_OVERHEAD


def _call_bytes(client: str, method: str, args: dict, value) -> int:
    """Request plus reply bytes of one forwarded DSO invocation."""
    oid = ObjectId.generate(random.Random(0)).hex
    request = {"id": 0, "method": CommunicationSubobject.DSO_RPC_METHOD,
               "src": client,
               "args": {"oid": oid, "msg": {
                   "type": "invoke", "mode": "read",
                   "payload": marshal_invocation(method, args)}}}
    reply = {"id": 0, "ok": True,
             "value": {"type": "result", "payload": marshal_result(value)}}
    return _wire(request) + _wire(reply)


def predict(params: LinkParameters, calls: int = CALLS,
            handshake: bool = True) -> dict:
    """{row label: (listContents, getFileContents)} in seconds, for
    every client-role row of E1 at ``calls`` calls per cell;
    ``handshake=False`` leaves out the one named mechanism."""
    package = PackageSemantics()
    for path, data in e1._FILES.items():
        package.addFile(path, data)
    topology = Topology.balanced(*TOPOLOGY)
    replica = topology.site(REPLICA_SITE)
    rows = {}
    for label, site in e1._PLACEMENTS:
        level = Topology.separation(topology.site(site), replica)
        latency, bandwidth = params.latency[level], params.bandwidth[level]
        client = "client-%s" % site.replace("/", "-")

        def call(nbytes):
            return 2 * latency + nbytes / bandwidth

        small = call(_call_bytes(client, "listContents", {},
                                 package.listContents()))
        large = call(_call_bytes(client, "getFileContents",
                                 {"path": "bin/tool"},
                                 package.getFileContents("bin/tool")))
        if handshake:
            small += call(2 * HEADER_OVERHEAD) / calls
        rows["client role, %s" % label] = (small, large)
    return rows


def _misses(predicted: dict, result: dict) -> set:
    """Labels of the rows where a cell is off by more than TOLERANCE."""
    measured = {row["representative"]: (row["read_small"], row["read_large"])
                for row in result["rows"]}
    return {label for label, cells in predicted.items()
            if any(abs(got - want) > TOLERANCE * want
                   for got, want in zip(measured[label], cells))}


def test_the_twin_covers_every_client_role_row_at_its_separation():
    rows = predict(LinkParameters())
    assert list(rows) == ["client role, same site", "client role, same city",
                          "client role, same region",
                          "client role, cross world"]
    # Each row costs more than the one before: separation dominates.
    small = [cells[0] for cells in rows.values()]
    assert small == sorted(small)
    topology = Topology.balanced(*TOPOLOGY)
    assert [Topology.separation(topology.site(site),
                                topology.site(REPLICA_SITE))
            for _label, site in e1._PLACEMENTS] == [
        Level.SITE, Level.CITY, Level.REGION, Level.WORLD]


def test_e1_matches_its_twin():
    result = e1.run_dso_invocation_experiment(calls_per_point=CALLS)
    assert _misses(predict(LinkParameters()), result) == set()


def test_the_twin_without_the_handshake_misses_every_row():
    # The named mechanism is load-bearing: a twin that charges only the
    # calls is off by more than the tolerance in every listContents cell.
    result = e1.run_dso_invocation_experiment(calls_per_point=CALLS)
    no_handshake = predict(LinkParameters(), handshake=False)
    assert _misses(no_handshake, result) == set(no_handshake)


def test_a_planted_world_latency_fails_the_cross_world_row_only(monkeypatch):
    predicted = predict(LinkParameters())
    monkeypatch.setitem(network.DEFAULT_LATENCY, Level.WORLD,
                        network.DEFAULT_LATENCY[Level.WORLD] * 1.1)
    result = e1.run_dso_invocation_experiment(calls_per_point=CALLS)
    assert _misses(predicted, result) == {"client role, cross world"}


@pytest.mark.parametrize("calls", [3, 7])
def test_the_twin_holds_at_other_call_counts(calls):
    result = e1.run_dso_invocation_experiment(calls_per_point=calls)
    assert _misses(predict(LinkParameters(), calls), result) == set()
