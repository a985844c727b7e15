"""Experiment E3 — Figure 3: the GDN against its two ancestors.

The paper positions the GDN as an improvement over anonymous FTP (full
mirroring) and the single-origin World Wide Web (§1, §2).  We replay
the same Zipf-popular, geographically spread download workload against
all three architectures on identical topology and corpus:

* **WWW**       — one origin server, every request crosses the world
                  to it;
* **FTP mirror**— a full mirror per region: local reads, but the whole
                  corpus is shipped to every mirror up front;
* **GDN**       — per-object scenarios from the ScenarioAdvisor:
                  popular packages get replicas in their hot regions,
                  the long tail stays on one server; HTTPDs cache.

Reported per system: distribution (setup) wide-area bytes, serving
wide-area bytes, mean and p95 download latency.  Expected shape: WWW
minimises setup traffic but pays latency and serving WAN bytes; the
mirror minimises latency but pays for replicating the unpopular tail;
the GDN approaches mirror latency at a fraction of the setup traffic.

Telemetry: each system's world carries one registry; the setup and
serving stages are *phase windows* over the network meter's per-level
byte counters (``meter.wide_area_delta(window)``), and download
latency is the stats bundle's streaming histogram.

A ``population=`` override appends a *flash-crowd coda* to the GDN
leg: after the trace replay, the same deployment serves a closed-loop
browser population drawing from the same Zipf mix.  Populations up to
:data:`PER_CLIENT_MAX` run one client generator per browser
(:class:`~repro.workloads.scenario.ClosedLoopScenario`); populations in
the hundred-thousands run as O(1) aggregated cohorts
(:class:`~repro.workloads.cohort.CohortScenario`), extending the figure
past what a per-client engine could hold.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..analysis.tables import Table, format_bytes, format_seconds
from ..baselines.mirror import MirrorNetwork
from ..baselines.www import WwwClient, WwwServer
from ..gdn.deployment import GdnDeployment
from ..gdn.scenario import ObjectUsage, ScenarioAdvisor
from ..sim.topology import Topology
from ..workloads.cohort import CohortScenario
from ..workloads.loadgen import LoadStats
from ..workloads.packages import PackageSpec, generate_corpus
from ..workloads.population import ClientPopulation, RequestStream
from ..workloads.scenario import (ClosedLoopScenario, RequestMix,
                                  TraceScenario)

__all__ = ["run_end_to_end_experiment", "format_result", "assert_shape"]

#: Wall-clock length of the optional flash-crowd coda on the GDN leg.
POPULATION_DURATION = 20.0

#: Populations up to this size run one client generator per browser;
#: larger ones run as O(1) aggregated cohorts.
PER_CLIENT_MAX = 2048


def _topology() -> Topology:
    return Topology.balanced(regions=3, countries=2, cities=1, sites=2)


def _workload(seed: int, package_count: int, read_count: int):
    rng = random.Random(seed)
    corpus = generate_corpus(package_count, rng, mean_file_size=30_000)
    population = ClientPopulation(_topology(), package_count,
                                  random.Random(seed + 1), alpha=1.0,
                                  home_share=0.6)
    stream = population.generate(read_count)
    return corpus, stream


class _SiteClients:
    """Lazily creates one client host per requesting site."""

    def __init__(self, world, prefix):
        self.world = world
        self.prefix = prefix
        self._hosts = {}

    def host_for(self, site):
        # The stream's Domain objects belong to the workload's own
        # topology instance; translate by path into this world's.
        key = site.path
        if key not in self._hosts:
            name = "%s-%s" % (self.prefix, key.replace("/", "-"))
            self._hosts[key] = self.world.host(name, key)
        return self._hosts[key]


def _replay(world, stream: RequestStream, one_request, label: str,
            rng_label: str) -> LoadStats:
    """Replay ``stream`` through the scenario engine; sequential
    pacing so every system serves the identical back-to-back trace
    (queueing effects would drown the per-request comparison)."""
    stats = LoadStats(registry=world.metrics, prefix="e3-" + label)
    scenario = TraceScenario.from_stream(stream, pacing="sequential",
                                         label=label)
    world.run_until(world.sim.process(scenario.drive(
        world.sim, one_request, rng=world.rng_for(rng_label),
        stats=stats)), limit=1e9)
    assert stats.ok == len(stream), \
        "%s: %d of %d requests failed (%s)" % (label, stats.failed,
                                               len(stream), stats.errors)
    return stats


def _run_www(corpus: List[PackageSpec], stream: RequestStream,
             seed: int) -> dict:
    from ..sim.world import World

    world = World(topology=_topology(), seed=seed)
    meter = world.network.meter
    origin = world.host("www-origin", "r0/c0/m0/s0")
    server = WwwServer(world, origin)
    setup = world.metrics.window("setup", now=world.now)
    for spec in corpus:
        for path, data in spec.materialize().items():
            server.publish("%s/%s" % (spec.name, path), data)
    server.start()
    setup.close(now=world.now)
    setup_bytes = meter.wide_area_delta(setup)  # zero: no distribution

    serving = world.metrics.window("serving", now=world.now)
    clients = _SiteClients(world, "user")
    www_clients = {}

    def one_request(arrival):
        host = clients.host_for(arrival.site)
        client = www_clients.get(host.name)
        if client is None:
            client = WwwClient(world, host, server)
            www_clients[host.name] = client
        spec = corpus[arrival.rank]
        path = "%s/%s" % (spec.name, spec.largest_file)
        status, _body, _elapsed = yield from client.get(path)
        return status == 200

    stats = _replay(world, stream, one_request, "www", "e3-www")
    return {"system": "WWW single origin", "setup_wan": setup_bytes,
            "serving_wan": meter.wide_area_delta(serving.close(world.now)),
            "latency": stats.latency}


def _run_mirror(corpus: List[PackageSpec], stream: RequestStream,
                seed: int) -> dict:
    from ..sim.world import World

    world = World(topology=_topology(), seed=seed)
    meter = world.network.meter
    origin_host = world.host("ftp-origin", "r0/c0/m0/s0")
    network = MirrorNetwork(world, origin_host, sync_period=1e9)
    for region in world.topology.world.children.values():
        if region.name == "r0":
            continue
        network.add_mirror(world.host("ftp-mirror-%s" % region.name,
                                      next(region.sites())))
    setup = world.metrics.window("setup", now=world.now)
    for spec in corpus:
        for path, data in spec.materialize().items():
            network.publish("%s/%s" % (spec.name, path), data)
    world.run_until(world.sim.process(network.sync_all()), limit=1e9)
    setup_bytes = meter.wide_area_delta(setup.close(world.now))

    serving = world.metrics.window("serving", now=world.now)
    clients = _SiteClients(world, "user")

    def one_request(arrival):
        host = clients.host_for(arrival.site)
        spec = corpus[arrival.rank]
        path = "%s/%s" % (spec.name, spec.largest_file)
        status, _body, _elapsed = yield from network.fetch(host, path)
        return status == 200

    stats = _replay(world, stream, one_request, "mirror", "e3-mirror")
    return {"system": "FTP full mirroring", "setup_wan": setup_bytes,
            "serving_wan": meter.wide_area_delta(serving.close(world.now)),
            "latency": stats.latency}


def _drive_population(gdn, corpus: List[PackageSpec], browsers: int,
                      target_requests: int, browser_for) -> dict:
    """Flash-crowd coda: the GDN deployment that just served the trace
    now faces a closed-loop browser population drawing from the same
    Zipf popularity.  The think time is stretched so the population
    issues about ``target_requests`` over the drive, keeping the coda
    comparable across population sizes."""
    think = browsers * POPULATION_DURATION / target_requests
    engine = (ClosedLoopScenario if browsers <= PER_CLIENT_MAX
              else CohortScenario)
    scenario = engine(browsers, think, duration=POPULATION_DURATION,
                      sites=gdn.world.topology.sites,
                      mix=RequestMix(len(corpus), alpha=1.0),
                      label="e3-population")
    stats = LoadStats(registry=gdn.world.metrics, prefix="e3-population")

    def one_request(arrival):
        spec = corpus[arrival.rank]
        response = yield from browser_for(arrival.site.path).download(
            spec.name, spec.largest_file)
        return response.ok

    elapsed = gdn.run(scenario.drive(
        gdn.world.sim, one_request,
        rng=gdn.world.rng_for("e3-population"), stats=stats), limit=1e9)
    return {"browsers": browsers, "throughput": stats.throughput(elapsed),
            "latency": stats.latency, "ok": stats.ok,
            "failed": stats.failed}


def _run_gdn(corpus: List[PackageSpec], stream: RequestStream,
             seed: int, population: int = 0) -> dict:
    gdn = GdnDeployment(topology=_topology(), seed=seed, secure=False)
    gdn.standard_fleet(gos_per_region=1)
    gdn.initial_sync()
    moderator = gdn.add_moderator("mod", "r0/c0/m0/s1")
    advisor = ScenarioAdvisor(gdn.gos_by_region(),
                              popularity_threshold=max(
                                  10, len(stream) // (4 * len(corpus))))
    ttl_by_name = {}
    meter = gdn.world.network.meter
    setup = gdn.world.metrics.window("setup", now=gdn.world.now)

    def publish():
        for index, spec in enumerate(corpus):
            usage = ObjectUsage(stream.reads_by_region(index),
                                writes=stream.writes(index),
                                size=spec.total_size)
            scenario = advisor.recommend(usage)
            ttl_by_name[spec.name] = scenario.cache_ttl
            yield from moderator.create_package(spec.name,
                                                spec.materialize(),
                                                scenario)

    gdn.run(publish(), host=moderator.host)
    gdn.settle(10.0)
    for httpd in gdn.httpds:
        httpd.cache_policy = lambda name: ttl_by_name.get(name, 60.0)
    setup_bytes = meter.wide_area_delta(setup.close(gdn.world.now))

    serving = gdn.world.metrics.window("serving", now=gdn.world.now)
    browser_for = gdn.browser_pool("browser")

    def one_request(arrival):
        spec = corpus[arrival.rank]
        response = yield from browser_for(arrival.site.path).download(
            spec.name, spec.largest_file)
        return response.ok

    stats = _replay(gdn.world, stream, one_request, "gdn", "e3-gdn")
    row = {"system": "GDN (per-object scenarios)",
           "setup_wan": setup_bytes,
           "serving_wan": meter.wide_area_delta(
               serving.close(gdn.world.now)),
           "latency": stats.latency}
    if population:
        row["population"] = _drive_population(gdn, corpus, population,
                                              len(stream), browser_for)
    browser_for.close()
    return row


def run_end_to_end_experiment(seed: int = 3, package_count: int = 12,
                              read_count: int = 250,
                              population: int = 0) -> Dict:
    """``population`` > 0 adds the flash-crowd coda to the GDN leg —
    pass e.g. ``100_000`` to drive the deployment with a statistical
    browser population after the paired trace comparison."""
    corpus, stream = _workload(seed, package_count, read_count)
    rows = [
        _run_www(corpus, stream, seed),
        _run_mirror(corpus, stream, seed),
        _run_gdn(corpus, stream, seed, population=population),
    ]
    result = {"rows": rows, "packages": package_count,
              "reads": read_count,
              "corpus_bytes": sum(spec.total_size for spec in corpus)}
    if population:
        result["population"] = rows[-1]["population"]
    return result


def format_result(result: Dict) -> str:
    table = Table(["system", "setup WAN", "serving WAN", "mean latency",
                   "p95 latency"],
                  title="E3 / Figure 3 - %d downloads of %d packages "
                        "(corpus %s) across 3 regions"
                        % (result["reads"], result["packages"],
                           format_bytes(result["corpus_bytes"])))
    for row in result["rows"]:
        table.add_row(row["system"], format_bytes(row["setup_wan"]),
                      format_bytes(row["serving_wan"]),
                      format_seconds(row["latency"].mean),
                      format_seconds(row["latency"].p(95)))
    rendered = table.render()
    pop = result.get("population")
    if pop:
        rendered += ("\nGDN flash-crowd coda: %d browsers, %.1f req/s, "
                     "mean %s / p95 %s, %d ok / %d failed"
                     % (pop["browsers"], pop["throughput"],
                        format_seconds(pop["latency"].mean),
                        format_seconds(pop["latency"].p(95)),
                        pop["ok"], pop["failed"]))
    return rendered


def assert_shape(result: Dict) -> None:
    """The paper's positioning: the GDN serves from nearby replicas, so
    it is well under the single-origin Web in user latency and serving
    traffic, and it ships less than indiscriminate mirroring up front."""
    www, mirror, gdn = result["rows"]
    assert gdn["latency"].mean < 0.7 * www["latency"].mean
    assert gdn["serving_wan"] < www["serving_wan"]
    assert gdn["setup_wan"] <= mirror["setup_wan"]
