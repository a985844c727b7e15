"""The five workloads: what is built, how it is loaded, what must hold.

Each workload is a function ``prepare(seed, scale) -> Prepared`` that
builds a world, publishes a corpus, settles and warms it — everything
``setup_s`` charges — and returns the scenario and request callable
the timed drive runs.  ``scale`` divides the request counts (1 for a
comparable run, 50 for ``--smoke``); open-loop rates shrink with them,
so a smoke run spans the same simulated time — bindings still expire,
faults still strike — and every premise still holds.

The *definition* of a workload (topology, rates, package count and
sizes, fault schedule) is fixed here; the seed draws the *sample*:
file contents, arrival instants, which object and site each request
hits, link jitter.  So metrics vary across seeds only by sampling
noise, and a given seed replays bit for bit.

Why each workload is in the set is recorded in ``BENCHMARK.json`` and
explained in ``README.md``; the layers each one stresses are checked
at run time by its *premise* (see :data:`PREMISES`).
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.gdn.deployment import GdnDeployment
from repro.gdn.scenario import ReplicationScenario
from repro.gdn.transfer import (ResumeToken, TransferBudgetExhausted,
                                TransferError)
from repro.sim.failures import FailureInjector
from repro.sim.network import LinkParameters
from repro.sim.retry import ExponentialBackoff, RetryBudget
from repro.sim.topology import Topology
from repro.sim.world import World
from repro.workloads.cohort import CohortScenario, DiurnalProfile
from repro.workloads.loadgen import PoissonSchedule
from repro.workloads.scenario import (ClosedLoopScenario, OpenLoopScenario,
                                      RequestMix, Scenario)

#: The download every GDN workload requests from a package.
FILE = "release.tar.gz"
#: File size by popularity rank (cycled): part of the definition, so
#: byte and latency metrics do not move with the seed.
FILE_SIZES = (4096, 8192, 16384)

#: Every GDN workload runs over links whose delay jitters by up to
#: this fraction, drawn from the world's seeded stream.  Without it
#: the simulated network is a constant of the topology: percentiles
#: sit on plateaus, identical for every seed.
LINK_JITTER = 0.1


class WrongBytes(Exception):
    """A request was answered, but not with the published bytes.

    Unlike a request that fails (no reply, an error status), this makes
    the whole run incorrect.
    """


def verified(body, published) -> bool:
    """True for the published bytes; anything else is :class:`WrongBytes`."""
    if body != published:
        raise WrongBytes("reply differs from the published bytes")
    return True


class Prepared:
    """A world that is built, published, settled and warm."""

    def __init__(self, world: World, scenario: Scenario,
                 request: Callable[..., Generator],
                 gdn: Optional[GdnDeployment] = None,
                 downloader=None, requests: Optional[int] = None):
        self.world = world
        self.scenario = scenario
        #: How many requests the drive will issue, give or take (a
        #: duration-bound scenario only knows its target).
        self.requests = requests if requests is not None else scenario.count
        #: ``request(arrival)`` performs one request: True once the
        #: reply is :func:`verified`, False when there was no reply.
        self.request = request
        self.gdn = gdn
        #: The chunked downloader, where the workload has one.
        self.downloader = downloader


def _deployment(seed: int, **options) -> GdnDeployment:
    """The common GDN world: 24 sites in 3 regions, jittery links."""
    return GdnDeployment(
        topology=Topology.balanced(3, 2, 2, 2), seed=seed,
        link_params=LinkParameters(jitter_fraction=LINK_JITTER), **options)


def _regions(world: World) -> list:
    return list(world.topology.world.children.values())


def _colocated_fleet(gdn: GdnDeployment, cache_ttl: float) -> None:
    """One GOS per region with a caching HTTPD on the same host."""
    for index, region in enumerate(_regions(gdn.world)):
        gdn.add_gos("gos-%d" % index, next(region.sites()))
        gdn.add_httpd("httpd-%d" % index, colocate_with="gos-%d" % index,
                      cache_policy=lambda _name: cache_ttl)


def _client_sites(world: World) -> list:
    """Where requests come from: every site, the sites of each
    region's first country twice.

    The servers of a region stand in its first country, and users
    cluster where the servers were put.  It also keeps the median
    request inside one distance class: with uniform placement exactly
    half the users are a country away from their access point, and
    the median latency flips between two classes from seed to seed.
    """
    sites = []
    for region in _regions(world):
        countries = list(region.children.values())
        sites.extend(countries[0].sites())
        for country in countries:
            sites.extend(country.sites())
    return sites


def _corpus(world: World, count: int, prefix: str,
            sizes: Tuple[int, ...] = FILE_SIZES
            ) -> List[Tuple[str, bytes]]:
    """``count`` (package name, file bytes) pairs, hottest rank first."""
    rng = world.rng_for("gdnbench.corpus")
    return [("/apps/%s/pkg%03d" % (prefix, rank),
             rng.randbytes(sizes[rank % len(sizes)]))
            for rank in range(count)]


def _publish(gdn: GdnDeployment, corpus: List[Tuple[str, bytes]],
             scenario_for: Callable[[int], ReplicationScenario]):
    """Publish the corpus through a moderator tool; let pushes drain."""
    gdn.initial_sync()
    moderator = gdn.add_moderator("mod", "r0/c0/m0/s1")

    def publish():
        for rank, (name, body) in enumerate(corpus):
            yield from moderator.create_package(name, {FILE: body},
                                                scenario_for(rank))

    gdn.run(publish(), host=moderator.host)
    gdn.settle(5.0)
    return moderator


def _fetch(browser, name: str, body: bytes) -> Generator:
    """One whole-file GET; True once the body is :func:`verified`,
    False when the access point did not answer with a 200."""
    response = yield from browser.download(name, FILE)
    return response.ok and verified(response.body, body)


def _reader(browser_for, corpus) -> Callable[..., Generator]:
    """The plain read request: fetch the arrival's package from the
    arrival's site."""
    def read(arrival):
        name, body = corpus[arrival.rank]
        return (yield from _fetch(browser_for(arrival.site), name, body))
    return read


def _warm(browser_for, fetches) -> Generator:
    """Fetch every (site, name, body) of ``fetches`` once, before the
    clock starts: browsers connected, access points bound, caches
    filled.  A fetch that fails here means the world was built wrong."""
    for site, name, body in fetches:
        if not (yield from _fetch(browser_for(site), name, body)):
            raise RuntimeError("warm-up fetch of %s from %s failed"
                               % (name, site.path))


def _everything_everywhere(world: World, corpus) -> list:
    return [(site, name, body) for site in world.topology.sites
            for name, body in corpus]


# -- steady_download ---------------------------------------------------------

STEADY_REQUESTS = 22_000
STEADY_RATE = 400.0
STEADY_PACKAGES = 16


def steady_download(seed: int, scale: int) -> Prepared:
    """The warm path: every request is served from the access point's
    caching representative, no GLS lookup, no GOS read."""
    gdn = _deployment(seed, secure=False)
    world = gdn.world
    _colocated_fleet(gdn, cache_ttl=600.0)
    corpus = _corpus(world, STEADY_PACKAGES, "steady")
    _publish(gdn, corpus, lambda _rank: ReplicationScenario.master_slave(
        "gos-0", ["gos-1", "gos-2"], cache_ttl=600.0))
    browser_for = gdn.browser_pool("bench")
    gdn.run(_warm(browser_for, _everything_everywhere(world, corpus)))

    scenario = OpenLoopScenario(
        PoissonSchedule(STEADY_RATE / scale),
        max(1, STEADY_REQUESTS // scale), sites=_client_sites(world),
        mix=RequestMix(STEADY_PACKAGES, alpha=1.0), label="steady_download")
    return Prepared(world, scenario, _reader(browser_for, corpus), gdn=gdn)


# -- long_tail ---------------------------------------------------------------

TAIL_REQUESTS = 7_000
TAIL_RATE = 200.0
TAIL_PACKAGES = 256


def long_tail(seed: int, scale: int) -> Prepared:
    """Everything the warm path bypasses: bindings expire every 2 s,
    the lookup cache holds half the working set, the access points
    proxy every read to an object server."""
    # A smoke run shrinks the corpus with the request count (and the
    # cache with the corpus), or its set-up alone would take seconds.
    packages = max(8, TAIL_PACKAGES // min(scale, 8))
    gdn = _deployment(
        seed, secure=False,
        gls_cache={"capacity": packages // 2, "ttl": 30.0},
        # The GLS stubs' own timeout and retry count, under the
        # jittered-backoff discipline instead of the fixed one.
        retry_policy=ExponentialBackoff(timeout=8.0, retries=2))
    world = gdn.world
    for index, region in enumerate(_regions(world)):
        sites = list(region.sites())
        gdn.add_gos("gos-%d" % index, sites[0])
        gdn.add_httpd("httpd-%d" % index, site=sites[1], binding_ttl=2.0,
                      cache_policy=lambda _name: None)
    corpus = _corpus(world, packages, "tail")
    _publish(gdn, corpus, lambda rank: ReplicationScenario.single_server(
        "gos-%d" % (rank % 3)))
    browser_for = gdn.browser_pool("bench")
    # Connect every site's browser; one package each, so the lookup
    # caches start all but empty.
    gdn.run(_warm(browser_for, [
        (site,) + corpus[index % packages]
        for index, site in enumerate(world.topology.sites)]))

    scenario = OpenLoopScenario(
        PoissonSchedule(TAIL_RATE / scale), max(1, TAIL_REQUESTS // scale),
        sites=_client_sites(world),
        mix=RequestMix(packages, alpha=0.9), label="long_tail")
    return Prepared(world, scenario, _reader(browser_for, corpus), gdn=gdn)


# -- secure_mixed ------------------------------------------------------------

SECURE_CLIENTS = 72
SECURE_REQUESTS_EACH = 100
SECURE_THINK = 0.2
SECURE_PACKAGES = 20
SECURE_WRITE_FRACTION = 0.05
#: A write replaces this 4 KiB file, so package state stays the same
#: size however long the drive is.
PATCH = "patches/latest.bin"


def secure_mixed(seed: int, scale: int) -> Prepared:
    """TLS everywhere, and writes beside the reads."""
    gdn = _deployment(seed, secure=True)
    world = gdn.world
    _colocated_fleet(gdn, cache_ttl=10.0)
    corpus = _corpus(world, SECURE_PACKAGES, "secure")
    moderator = _publish(
        gdn, corpus, lambda _rank: ReplicationScenario.master_slave(
            "gos-0", ["gos-1", "gos-2"], cache_ttl=10.0))
    patches = [world.rng_for("gdnbench.patch%d" % index).randbytes(4096)
               for index in range(8)]
    browser_for = gdn.browser_pool("bench")
    read = _reader(browser_for, corpus)

    def request(arrival):
        if arrival.kind != "write":
            return (yield from read(arrival))
        name, _body = corpus[arrival.rank]
        version = yield from moderator.update_package(
            name, add_files={PATCH: patches[arrival.index % len(patches)]})
        return version > 0

    # Every access point binds every package now: sixty cold binds
    # inside the drive would sit exactly at its 99th percentile.
    gdn.run(_warm(browser_for, _everything_everywhere(world, corpus)))

    scenario = ClosedLoopScenario(
        SECURE_CLIENTS, SECURE_THINK,
        requests_per_client=max(1, SECURE_REQUESTS_EACH // scale),
        sites=_client_sites(world),
        mix=RequestMix(SECURE_PACKAGES, alpha=1.0,
                       write_fraction=SECURE_WRITE_FRACTION),
        label="secure_mixed")
    return Prepared(world, scenario, request, gdn=gdn)


# -- million_users -----------------------------------------------------------

MILLION_USERS = 1_000_000
MILLION_REQUESTS = 45_000
MILLION_DURATION = 600.0
MILLION_FRAGMENTS = 8


def million_users(seed: int, scale: int) -> Prepared:
    """The population claim: a million think-time users as aggregated
    cohorts, every request answered by one 8-fragment burst.  Kernel,
    network and cohort engine only — no RPC, GLS or GDN code."""
    world = World(topology=Topology.balanced(4, 4, 4, 4), seed=seed)
    topology = world.topology
    server = world.host("origin", topology.site("r0/c0/m0/s0"))
    server_sock = server.udp_socket(80)
    fragments = [(("frag", index), 4096)
                 for index in range(MILLION_FRAGMENTS)]

    def serve():
        while True:
            datagram = yield server_sock.recv()
            server_sock.send_burst(datagram.src_host, datagram.payload,
                                   fragments)
    server.spawn(serve())

    client_sites = topology.sites[1:]
    hosts = {site.path: world.host("client@" + site.path, site)
             for site in client_sites}
    expected = sorted(payload for payload, _size in fragments)
    # Request datagrams differ in length (a URL, some headers), drawn
    # per request.  Links here do not jitter — jitter would split each
    # burst into eight arrivals — so this is what keeps latency from
    # being one constant per distance class.
    sizes = world.rng_for("gdnbench.request-size")

    def download(arrival):
        sock = hosts[arrival.site.path].udp_socket()
        sock.send_to(server, 80, sock.port, size=64 + sizes.randrange(512))
        received = []
        while len(received) < MILLION_FRAGMENTS:
            datagram = yield sock.recv()
            received.append(datagram.payload)
        sock.close()
        return verified(sorted(received), expected)

    profile = DiurnalProfile.sinusoidal(slots=24, floor=0.2,
                                        period=MILLION_DURATION)
    # Mean think time such that the diurnally modulated issue rate
    # integrates to the request target over the run.
    target = max(1, MILLION_REQUESTS // scale)
    think = (MILLION_USERS * profile.mean_multiplier() * MILLION_DURATION
             / target)
    scenario = CohortScenario(
        MILLION_USERS, think, duration=MILLION_DURATION, sites=client_sites,
        mix=RequestMix(1024, alpha=1.0), cohort_size=8192, profile=profile,
        label="million_users")
    return Prepared(world, scenario, download, requests=target)


# -- faulted_transfer --------------------------------------------------------

XFER_CLIENTS = 8
XFER_EACH = 36
XFER_CHUNKS = 48
XFER_CHUNK = 2048
XFER_CLIENT_SITE = "r1/c0/m0/s0"
#: The clients' site is cut off for 15 s in every 120 s of the drive.
XFER_PERIOD = 120.0
XFER_OUTAGE = 15.0
XFER_FIRST_OUTAGE = 5.0
XFER_WINDOWS = 64


def faulted_transfer(seed: int, scale: int) -> Prepared:
    """The robustness layers under load: resumable chunked downloads
    through a non-caching access point while the clients' site keeps
    dropping off the network."""
    gdn = _deployment(seed, secure=False)
    world = gdn.world
    sim = world.sim
    for index, region in enumerate(_regions(world)):
        gdn.add_gos("gos-%d" % index, next(region.sites()))
    gdn.add_httpd("ap", site="r0/c0/m0/s1", cache_policy=lambda _name: None)
    corpus = _corpus(world, 1, "transfer",
                     sizes=(XFER_CHUNK * XFER_CHUNKS,))
    _publish(gdn, corpus,
             lambda _rank: ReplicationScenario.single_server("gos-0"))
    name, payload = corpus[0]
    downloader = gdn.chunked_downloader(
        policy=ExponentialBackoff(timeout=2.0, retries=3, base=0.5,
                                  multiplier=2.0, max_delay=4.0, jitter=0.5),
        budget=RetryBudget(rate=2.0, burst=64.0), resume=True,
        chunk_size=XFER_CHUNK)
    browser_for = gdn.browser_pool("bench")
    client_site = world.topology.site(XFER_CLIENT_SITE)

    def transfer(arrival):
        browser = browser_for(arrival.site)
        saved: Dict[str, dict] = {}

        def checkpoint(token):
            saved["wire"] = token.to_wire()

        for _attempt in range(12):
            token = (ResumeToken.from_wire(saved["wire"])
                     if "wire" in saved else None)
            try:
                data, _token = yield from downloader.download(
                    browser, name, FILE, token=token, checkpoint=checkpoint)
            except TransferBudgetExhausted:
                return False
            except TransferError:
                yield sim.timeout(2.0)
                continue
            return verified(data, payload)
        return False

    gdn.run(_warm(browser_for, [(client_site, name, payload)]))

    injector = FailureInjector(world)
    base = world.now
    for window in range(XFER_WINDOWS):
        injector.partition_domain(
            client_site, base + XFER_FIRST_OUTAGE + window * XFER_PERIOD,
            XFER_OUTAGE)

    scenario = ClosedLoopScenario(
        XFER_CLIENTS, 1.0, requests_per_client=max(1, XFER_EACH // scale),
        sites=[client_site], think="fixed", label="faulted_transfer")
    return Prepared(world, scenario, transfer, gdn=gdn,
                    downloader=downloader)


WORKLOADS: Dict[str, Callable[[int, int], Prepared]] = {
    "steady_download": steady_download,
    "long_tail": long_tail,
    "secure_mixed": secure_mixed,
    "million_users": million_users,
    "faulted_transfer": faulted_transfer,
}

#: One premise per workload, over the drive's per-layer counts and
#: request counts: the property that makes the workload exercise (or
#: bypass) the layers it is in the set for.  A workload whose premise
#: fails has silently turned into a different workload, and the run is
#: not correct.
PREMISES: Dict[str, Tuple[str, Callable[[Dict[str, float],
                                         Dict[str, int]], bool]]] = {
    "steady_download": (
        "no GLS lookup and no GOS read after warm-up",
        lambda layer, counts:
            layer["gls.node_requests_per_request"] == 0
            and layer["gos.requests_per_request"] == 0),
    "long_tail": (
        "lookup-cache hit ratio strictly between 0.2 and 0.8",
        lambda layer, counts: 0.2 < layer["gdn.cache.hit_ratio"] < 0.8),
    "secure_mixed": (
        "writes are at least 3 % of the completed requests",
        lambda layer, counts: counts["writes"] >= 0.03 * counts["ok"]),
    "million_users": (
        "every reply is one 8-fragment burst",
        lambda layer, counts:
            layer["sim.network.burst_messages_per_call"]
            == MILLION_FRAGMENTS),
    "faulted_transfer": (
        "interrupted transfers resume, inside the fault schedule",
        lambda layer, counts:
            layer["gdn.transfer.resumes_per_request"] > 0
            and layer["workloads.sim_duration_s"]
            < XFER_WINDOWS * XFER_PERIOD),
}
