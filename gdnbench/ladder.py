"""The layer ladder: what one call into each layer costs, rung by rung.

A ``steady_download`` request goes browser → RPC channel → HTTPD →
name service → representative → marshalled reply, on top of the
transport, the network and the kernel.  The ladder times one public
entry point of each of those layers on the smallest world that reaches
it, always moving the same 8 KiB body, so the difference between a
rung and the rung below is what that layer adds.  It is the traced
run's second half: the sampler says where a workload's time goes, the
ladder says what a single call costs when nothing else is running.

Per rung: ``us_per_op`` (calibrated host CPU, see ``calibration.py``;
the median of :data:`PASSES` passes), and, from one pass of exactly
:data:`COUNT_OPS` calls so that they repeat bit for bit,
``events_per_op``, ``timers_per_op`` and
``peak_alloc_bytes_per_op`` (the allocation high-water mark of one
call under ``tracemalloc``: bytes allocated above the level at the
call's start.  CPython keeps no cumulative allocation count; the
high-water mark is what moves when a layer copies the body once
more).

``python3 -m gdnbench.ladder SEED SECONDS`` prints the rungs as JSON.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import tracemalloc
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.core.runtime import Runtime
from repro.gdn.cache import GlsLookupCache
from repro.gdn.deployment import GdnDeployment
from repro.gdn.scenario import ReplicationScenario
from repro.gls.service import GlsClient
from repro.security.certs import CertificateAuthority, Credentials
from repro.security.tls import client_wrapper, server_factory
from repro.sim.kernel import Simulator
from repro.sim.rpc import RpcChannel, RpcServer, UdpRpcClient, UdpRpcServer
from repro.sim.topology import Topology
from repro.sim.world import World
from repro.workloads.loadgen import LoadStats, UniformSchedule
from repro.workloads.scenario import OpenLoopScenario

from .calibration import Calibrator, cpu_clock

#: Calls before anything is measured (connections, caches, bindings).
WARM_OPS = 20
#: Calls in the counting pass; fixed, so the counts do not depend on
#: how fast the host happens to be.
COUNT_OPS = 100
#: Timed passes per rung; the median is reported.
PASSES = 3
#: Reference-loop passes before and after each timed pass.
REFERENCE_PASSES = 2

NAME = "/apps/ladder/pkg"
FILE = "release.tar.gz"
BODY = bytes(range(256)) * 32  # 8 KiB, the median steady_download body

#: ``run(n, tick)`` performs ``n`` calls, calling ``tick()`` after each.
Run = Callable[[int, Optional[Callable[[], None]]], None]


def expect(condition) -> None:
    """Every call's result is checked inside the timed region (an
    ``assert`` would vanish under ``-O`` and change what is timed)."""
    if not condition:
        raise RuntimeError("a ladder call returned the wrong result")


def _sequential(sim: Simulator, op: Callable[[], Generator]) -> Run:
    """``n`` back-to-back calls of the generator function ``op``."""
    def run(n: int, tick=None) -> None:
        def loop():
            for _ in range(n):
                yield from op()
                if tick is not None:
                    tick()
        sim.run_until_complete(sim.process(loop()), 1e12)
    return run


def _pair(seed: int):
    """Two hosts on one campus: the smallest network there is."""
    world = World(topology=Topology.balanced(1, 1, 1, 2), seed=seed)
    return (world, world.host("client", "r0/c0/m0/s0"),
            world.host("server", "r0/c0/m0/s1"))


def _small_gdn(seed: int):
    """Two regions, one GOS + colocated caching HTTPD, one package."""
    gdn = GdnDeployment(topology=Topology.balanced(2, 1, 1, 2), seed=seed,
                        secure=False)
    gdn.add_gos("gos-0", "r0/c0/m0/s0")
    gdn.add_httpd("httpd-0", colocate_with="gos-0",
                  cache_policy=lambda _name: 600.0)
    gdn.initial_sync()
    moderator = gdn.add_moderator("mod", "r0/c0/m0/s1")
    oid = gdn.run(
        moderator.create_package(NAME, {FILE: BODY},
                                 ReplicationScenario.single_server("gos-0")),
        host=moderator.host)
    gdn.settle(2.0)
    return gdn, oid


# -- the rungs ---------------------------------------------------------------

def kernel_chain(seed: int) -> Tuple[Simulator, Run]:
    """``Simulator.timeout`` chain over a populated heap."""
    sim = Simulator()
    for index in range(1000):
        # Parked far in the future: the heap is a realistic depth and
        # none of these ever fires.
        sim.timeout(1e9 + index)

    def op():
        yield sim.timeout(0.001)
    return sim, _sequential(sim, op)


def transport_datagram(seed: int) -> Tuple[Simulator, Run]:
    """``UdpSocket.send_to`` / ``recv`` echo: request out, body back."""
    world, client, server = _pair(seed)
    server_sock = server.udp_socket(7)

    def serve():
        while True:
            datagram = yield server_sock.recv()
            server_sock.send_to(datagram.src_host, datagram.src_port, BODY,
                                size=len(BODY))
    server.spawn(serve())
    sock = client.udp_socket()

    def op():
        sock.send_to(server, 7, FILE, size=64)
        datagram = yield sock.recv()
        expect(datagram.payload is BODY)
    return world.sim, _sequential(world.sim, op)


def rpc_udp_call(seed: int) -> Tuple[Simulator, Run]:
    """``UdpRpcClient.call``: envelope, serde sizing, pooled deadline."""
    world, client, server = _pair(seed)
    rpc_server = UdpRpcServer(server, 5300)
    rpc_server.register("get", lambda ctx, args: BODY)
    rpc_server.start()
    rpc_client = UdpRpcClient(client)

    def op():
        body = yield from rpc_client.call(server, 5300, "get",
                                          {"path": FILE})
        expect(body == BODY)
    return world.sim, _sequential(world.sim, op)


def _channel_rung(seed: int, secure: bool) -> Tuple[Simulator, Run]:
    world, client, server = _pair(seed)
    factory = wrapper = None
    if secure:
        rng = world.rng_for("ladder-pki")
        authority = CertificateAuthority("ladder-ca", rng)
        factory = server_factory(
            Credentials.issue_for("server", authority, rng),
            client_auth="required")
        wrapper = client_wrapper(
            credentials=Credentials.issue_for("client", authority, rng))
    rpc_server = RpcServer(server, 7000, channel_factory=factory)
    rpc_server.register("get", lambda ctx, args: BODY)
    rpc_server.start()
    channel = world.run_until(client.spawn(
        RpcChannel.open(client, server, 7000, channel_wrapper=wrapper)))

    def op():
        body = yield from channel.call("get", {"path": FILE})
        expect(body == BODY)
    return world.sim, _sequential(world.sim, op)


def rpc_channel_call(seed: int) -> Tuple[Simulator, Run]:
    """``RpcChannel.call`` over a plain connection."""
    return _channel_rung(seed, secure=False)


def tls_channel_call(seed: int) -> Tuple[Simulator, Run]:
    """The same call over two-way-authenticated TLS records."""
    return _channel_rung(seed, secure=True)


def gns_resolve(seed: int) -> Tuple[Simulator, Run]:
    """``GlobeNameService.resolve`` with a warm resolver cache."""
    gdn, oid = _small_gdn(seed)
    names = gdn.httpds[0].name_service

    def op():
        oid_hex = yield from names.resolve(NAME)
        expect(oid_hex == oid.hex)
    return gdn.world.sim, _sequential(gdn.world.sim, op)


def _walker(gdn: GdnDeployment) -> GlsClient:
    """A GLS stub in the region that holds no replica."""
    host = gdn.world.host("walker", "r1/c0/m0/s1")
    return GlsClient(gdn.world, host, gdn.gls)


def gls_lookup_walk(seed: int) -> Tuple[Simulator, Run]:
    """``GlsClient.lookup`` from a replica-less region: up to the
    root, down the forwarding pointers."""
    gdn, oid = _small_gdn(seed)
    client = _walker(gdn)

    def op():
        wires = yield from client.lookup(oid.hex)
        expect(wires)
    return gdn.world.sim, _sequential(gdn.world.sim, op)


def cache_lookup_hit(seed: int) -> Tuple[Simulator, Run]:
    """``GlsLookupCache.lookup`` answering the same walk from memory."""
    gdn, oid = _small_gdn(seed)
    cache = GlsLookupCache(gdn.world.sim, _walker(gdn), ttl=1e9)

    def op():
        wires = yield from cache.lookup(oid.hex)
        expect(wires)
    return gdn.world.sim, _sequential(gdn.world.sim, op)


def runtime_bind_invoke(seed: int) -> Tuple[Simulator, Run]:
    """``Runtime.bind(refresh=True)`` + ``invoke("getFileContents")``
    against the object server: lookup, load, connect, remote read."""
    gdn, oid = _small_gdn(seed)
    world = gdn.world
    host = world.host("binder", "r0/c0/m0/s1")
    runtime = Runtime(world, host, GlsClient(world, host, gdn.gls),
                      gdn.repository)

    def op():
        representative = yield from runtime.bind(oid, refresh=True)
        body = yield from representative.invoke("getFileContents",
                                                {"path": FILE})
        expect(body == BODY)
    return world.sim, _sequential(world.sim, op)


def browser_download(seed: int) -> Tuple[Simulator, Run]:
    """Sequential warm ``Browser.download``: the whole request path."""
    gdn, _oid = _small_gdn(seed)
    browser = gdn.add_browser("ladder-browser", "r0/c0/m0/s1")

    def op():
        response = yield from browser.download(NAME, FILE)
        expect(response.ok and response.body == BODY)
    return gdn.world.sim, _sequential(gdn.world.sim, op)


def scenario_drive(seed: int) -> Tuple[Simulator, Run]:
    """The same downloads through ``OpenLoopScenario.drive`` with
    ``LoadStats`` on the world's registry: what the scenario engine
    adds per request.  Arrivals are spaced so requests never overlap."""
    gdn, _oid = _small_gdn(seed)
    world = gdn.world
    browser = gdn.add_browser("ladder-browser", "r0/c0/m0/s1")
    stats = LoadStats(registry=world.metrics, prefix="ladder")
    rng = world.rng_for("ladder")

    def run(n: int, tick=None) -> None:
        def request(_arrival):
            response = yield from browser.download(NAME, FILE)
            if tick is not None:
                tick()
            return response.ok and response.body == BODY
        scenario = OpenLoopScenario(UniformSchedule(20.0), n,
                                    sites=[browser.host.site])
        world.run_until(world.sim.process(
            scenario.drive(world.sim, request, rng=rng, stats=stats)),
            limit=1e12)
        expect(stats.failed == 0)
    return world.sim, run


RUNGS: Dict[str, Callable[[int], Tuple[Simulator, Run]]] = {
    "sim.kernel.chain": kernel_chain,
    "sim.transport.datagram": transport_datagram,
    "sim.rpc.udp_call": rpc_udp_call,
    "sim.rpc.channel_call": rpc_channel_call,
    "security.tls.channel_call": tls_channel_call,
    "gns.resolve": gns_resolve,
    "gls.lookup_walk": gls_lookup_walk,
    "gdn.cache.lookup_hit": cache_lookup_hit,
    "core.runtime.bind_invoke": runtime_bind_invoke,
    "gdn.browser.download": browser_download,
    "workloads.scenario.drive": scenario_drive,
}

#: The rung each rung stands on: the difference between the two is
#: what the upper one adds (or, for the cache hit, saves).  The ladder
#: forks: a name lookup and a location lookup are not stacked on TLS.
BELOW: Dict[str, Optional[str]] = {
    "sim.kernel.chain": None,
    "sim.transport.datagram": "sim.kernel.chain",
    "sim.rpc.udp_call": "sim.transport.datagram",
    "sim.rpc.channel_call": "sim.transport.datagram",
    "security.tls.channel_call": "sim.rpc.channel_call",
    "gns.resolve": None,
    "gls.lookup_walk": "sim.rpc.udp_call",
    "gdn.cache.lookup_hit": "gls.lookup_walk",
    "core.runtime.bind_invoke": "gls.lookup_walk",
    "gdn.browser.download": "sim.rpc.channel_call",
    "workloads.scenario.drive": "gdn.browser.download",
}

#: The four numbers every rung reports, with their units.
RUNG_METRICS = {"us_per_op": "us", "events_per_op": "count",
                "timers_per_op": "count", "peak_alloc_bytes_per_op": "B"}


class _HighWater:
    """Sums, call by call, the bytes allocated above the level the
    call started at."""

    def __init__(self):
        self.total = 0
        self._level = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()

    def tick(self) -> None:
        level, peak = tracemalloc.get_traced_memory()
        self.total += peak - self._level
        self._level = level
        tracemalloc.reset_peak()


def measure(build: Callable[[int], Tuple[Simulator, Run]], seed: int,
            seconds: float) -> Dict[str, float]:
    """One rung: warm, count over :data:`COUNT_OPS` calls, then time
    :data:`PASSES` passes sized to fill ``seconds`` together."""
    sim, run = build(seed)
    run(WARM_OPS, None)

    gc.collect()
    events = sim.events_processed
    timers = sim.timers_scheduled
    tracemalloc.start()
    try:
        meter = _HighWater()
        run(COUNT_OPS, meter.tick)
    finally:
        tracemalloc.stop()
    counts = {
        "events_per_op": (sim.events_processed - events) / COUNT_OPS,
        "timers_per_op": (sim.timers_scheduled - timers) / COUNT_OPS,
        "peak_alloc_bytes_per_op": meter.total / COUNT_OPS,
    }

    def timed(n: int) -> float:
        """Calibrated CPU seconds of ``n`` calls."""
        calibrator = Calibrator()
        calibrator.sample(REFERENCE_PASSES)
        started = cpu_clock()
        run(n, None)
        elapsed = cpu_clock() - started
        calibrator.sample(REFERENCE_PASSES)
        return elapsed * calibrator.factor()

    gc.collect()
    per_op = max(timed(COUNT_OPS) / COUNT_OPS, 1e-7)
    ops = max(COUNT_OPS, int(seconds / PASSES / per_op))
    typical = statistics.median(timed(ops) for _ in range(PASSES))
    return dict(counts, us_per_op=typical / ops * 1e6)


def run_ladder(seed: int, seconds: float) -> Dict[str, Dict[str, float]]:
    """Every rung, bottom first; ``seconds`` of timing per rung."""
    return {name: measure(build, seed, seconds)
            for name, build in RUNGS.items()}


def main(argv: List[str]) -> int:
    seed, seconds = argv
    json.dump(run_ladder(int(seed), float(seconds)), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
