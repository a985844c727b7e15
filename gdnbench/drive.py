"""One drive of one workload, in an interpreter of its own.

``python3 -m gdnbench.drive WORKLOAD SEED SCALE TRACED`` sets the
workload up, runs its request stream once with the clock on, checks
the outcome and prints one JSON record.  The parent (``__main__``)
starts several of these one after another: a fresh interpreter per
drive is what makes host time repeat (no allocator history, no warm
caches from the previous drive) and what makes the simulated metrics
of two drives comparable bit for bit (no process-wide counters carried
over).

Every number is read from outside the program: the world's metrics
registry over a window that spans the timed drive, public counters of
the deployment's components, and this module's own request wrapper.
"""

from __future__ import annotations

import gc
import json
import math
import re
import resource
import sys
from typing import Dict, Generator, List

from repro.workloads.loadgen import LoadStats

from .calibration import Calibrator, cpu_clock
from .sampler import StackSampler
from .workloads import PREMISES, WORKLOADS, Prepared, WrongBytes

#: Simulated seconds a failed request is recorded at, far above any
#: latency a completed request of any workload can reach: a failure
#: can only ever push a percentile up.
FAILURE_CEILING = 120.0

#: Passes of the reference loop interleaved with a timed drive, at
#: fixed request counts, and before and after set-up.
DRIVE_PASSES = 40
SETUP_PASSES = 10


class Recorder:
    """The benchmark's own request wrapper: counts and exact latencies.

    Latency runs from the instant the request was *due* (an open-loop
    arrival's scheduled time, a closed-loop client's issue instant) to
    its completion, so a stalled system is charged for the wait it
    imposes.  A failed request is recorded at :data:`FAILURE_CEILING`,
    so failing can never improve a percentile.
    """

    def __init__(self, sim, request, calibrator: Calibrator, every: int):
        self._sim = sim
        self._request = request
        self._calibrator = calibrator
        self._every = every
        self.attempted = 0
        self.ok = 0
        self.failed = 0
        self.writes = 0
        self.wrong = 0
        self.latencies: List[float] = []
        self.errors: List[str] = []

    def request(self, arrival) -> Generator:
        self.attempted += 1
        if self.attempted % self._every == 0:
            self._calibrator.sample()
        if arrival.kind == "write":
            self.writes += 1
        try:
            good = yield from self._request(arrival)
        except WrongBytes:
            good = False
            self.wrong += 1
        except Exception as exc:  # noqa: BLE001 - counted and reported
            good = False
            if len(self.errors) < 5:
                self.errors.append(repr(exc))
        if good:
            self.ok += 1
            self.latencies.append(self._sim.now - arrival.time)
        else:
            self.failed += 1
            self.latencies.append(FAILURE_CEILING)
        return good

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over every attempted request."""
        ordered = sorted(self.latencies)
        return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _public_totals(prepared: Prepared) -> Dict[str, float]:
    """Counters the registry does not carry, from public attributes."""
    totals = dict.fromkeys(
        ("resolutions", "resolver_hits", "resolver_queries", "binds",
         "state_transfers"), 0)
    network = prepared.world.network
    totals["burst_calls"] = network.burst_calls
    totals["burst_messages"] = network.burst_messages
    gdn = prepared.gdn
    if gdn is None:
        return totals
    for tool in list(gdn.httpds) + list(gdn.moderators.values()):
        resolver = tool.name_service.resolver
        totals["resolutions"] += resolver.resolutions
        totals["resolver_hits"] += resolver.cache_hits
        totals["resolver_queries"] += resolver.queries_sent
        totals["binds"] += tool.runtime.binds_performed
    for server in gdn.object_servers.values():
        for replica in server.replicas.values():
            totals["state_transfers"] += replica.replication.state_transfers
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Observed:
    """One timed drive: runs it, keeps what it left behind, reads it."""

    def __init__(self, prepared: Prepared, traced: bool):
        world = prepared.world
        sim = world.sim
        self.prepared = prepared
        self.registry = world.metrics
        calibrator = Calibrator()
        self.recorder = Recorder(
            sim, prepared.request, calibrator,
            every=max(1, prepared.requests // DRIVE_PASSES))
        self.stats = LoadStats(registry=self.registry, prefix="gdnbench")
        self.sampler = StackSampler() if traced else None
        # The peaks reported are the drive's, not the set-up's.
        sim.peak_heap_size = sim.heap_size
        sim.peak_ready_size = sim.ready_size
        gc.collect()

        self.before = _public_totals(prepared)
        self.window = self.registry.window("drive", now=world.now)
        if self.sampler is not None:
            self.sampler.start()
        started = cpu_clock()
        self.sim_duration = world.run_until(
            sim.process(prepared.scenario.drive(
                sim, self.recorder.request,
                rng=world.rng_for("gdnbench.scenario"), stats=self.stats)),
            limit=1e12)
        ended = cpu_clock()
        if self.sampler is not None:
            self.sampler.stop()
        self.window.close(now=world.now)
        self.after = _public_totals(prepared)
        #: Timed-drive CPU seconds, the reference passes taken out: as
        #: the clock read them, and calibrated.
        self.raw_cpu = ended - started - calibrator.spent
        self.cpu = self.raw_cpu * calibrator.factor()
        self.reference_pass = calibrator.spent / len(calibrator.passes)
        self.events = self.delta(r"kernel\.events_processed")

    def delta(self, pattern: str) -> float:
        """Summed window delta of every counter whose name matches."""
        matcher = re.compile(pattern)
        return sum(self.window.delta(name) for name in self.registry.names()
                   if matcher.fullmatch(name))

    def gauge(self, pattern: str) -> float:
        """Summed current value of every gauge whose name matches."""
        matcher = re.compile(pattern)
        return sum(self.registry.get(name).value
                   for name in self.registry.names()
                   if matcher.fullmatch(name))

    def moved(self, key: str) -> float:
        return self.after[key] - self.before[key]

    def simulated(self) -> Dict[str, float]:
        """The end-to-end metrics that are simulated, not host time."""
        recorder = self.recorder
        attempted = recorder.attempted
        meter = self.prepared.world.network.meter
        return {
            "events_per_request": self.events / attempted,
            "sim_latency_p50_ms": recorder.percentile(50) * 1e3,
            "sim_latency_p99_ms": recorder.percentile(99) * 1e3,
            "sim_goodput_rps": _ratio(recorder.ok, self.sim_duration),
            "wan_bytes_per_request":
                meter.wide_area_delta(self.window) / attempted,
            "ok_ratio": recorder.ok / attempted,
        }

    def layer_counts(self) -> Dict[str, float]:
        """Family A of the per-layer metrics (see README.md), less the
        host-time ones, which the parent works out over all drives."""
        delta, moved = self.delta, self.moved
        sim = self.prepared.world.sim
        attempted = self.recorder.attempted
        cache_hits = delta(r"gls_cache\..*\.hits")
        cache_misses = delta(r"gls_cache\..*\.misses")
        return {
            "sim.kernel.timers_per_request":
                delta(r"kernel\.timers_scheduled") / attempted,
            "sim.kernel.timers_cancelled_per_request":
                delta(r"kernel\.timers_cancelled") / attempted,
            "sim.kernel.deadline_arms_per_request":
                delta(r"kernel\.deadline_pool\.armed") / attempted,
            "sim.kernel.peak_heap_size": sim.peak_heap_size,
            "sim.kernel.peak_ready_size": sim.peak_ready_size,
            "sim.kernel.stale_timers_after": sim.stale_timer_count,
            "sim.network.messages_per_request":
                delta(r"net\.messages\..*") / attempted,
            "sim.network.bytes_per_request":
                delta(r"net\.bytes\..*") / attempted,
            "sim.network.dropped_per_request":
                delta(r"net\.dropped") / attempted,
            "sim.network.burst_messages_per_call":
                _ratio(moved("burst_messages"), moved("burst_calls")),
            "gls.node_requests_per_request":
                delta(r"gls\.requests") / attempted,
            "gls.records": self.gauge(r"gls\.records"),
            "gdn.cache.hit_ratio":
                _ratio(cache_hits, cache_hits + cache_misses),
            "gdn.cache.upstream_lookups_per_request":
                delta(r"gls_cache\..*\.upstream_lookups") / attempted,
            "gdn.cache.coalesced_per_request":
                delta(r"gls_cache\..*\.coalesced") / attempted,
            "gdn.cache.evictions_per_request":
                delta(r"gls_cache\..*\.evictions") / attempted,
            "gdn.cache.stale_served_per_request":
                delta(r"gls_cache\..*\.stale_served") / attempted,
            "gns.resolver_hit_ratio":
                _ratio(moved("resolver_hits"), moved("resolutions")),
            "gns.queries_per_request": moved("resolver_queries") / attempted,
            "core.runtime.binds_per_request": moved("binds") / attempted,
            "core.replication.state_transfers_per_request":
                moved("state_transfers") / attempted,
            "gos.requests_per_request":
                delta(r"gos\..*\.requests_served") / attempted,
            "gdn.httpd.errors_per_request":
                delta(r"httpd\..*\.errors") / attempted,
            "gdn.httpd.bytes_served_per_request":
                delta(r"httpd\..*\.bytes_served") / attempted,
            "gdn.transfer.chunk_retries_per_request":
                delta(r"transfer\.chunks_retried") / attempted,
            "gdn.transfer.bytes_refetched_ratio":
                _ratio(delta(r"transfer\.bytes_refetched"),
                       delta(r"transfer\.bytes_applied")),
            "gdn.transfer.resumes_per_request":
                delta(r"transfer\.resumes") / attempted,
            "gdn.transfer.budget_exhausted":
                delta(r"transfer\.budget_exhausted"),
            "workloads.requests_attempted": attempted,
            "workloads.sim_duration_s": self.sim_duration,
        }

    def complaints(self, workload: str, layer: Dict[str, float],
                   counts: Dict[str, int]) -> List[str]:
        """Everything that makes this drive's outcome incorrect."""
        recorder, stats = self.recorder, self.stats
        found = []
        if recorder.wrong:
            found.append("%d replies differed from the published bytes"
                         % recorder.wrong)
        downloader = self.prepared.downloader
        if downloader is not None and downloader.duplicate_applications:
            found.append("a verified chunk was applied twice")
        if recorder.ok + recorder.failed != recorder.attempted \
                or stats.issued != recorder.attempted or stats.in_flight:
            found.append("request accounting does not add up: %r, load "
                         "stats %r" % (counts, stats.summary()))
        for name, value in (
                ("kernel.deadline_pool.depth",
                 self.gauge(r"kernel\.deadline_pool\.depth")),
                ("stale timers", layer["sim.kernel.stale_timers_after"]),
                ("lookup-cache inflight",
                 self.gauge(r"gls_cache\..*\.inflight")),
                ("lookup-cache waiters",
                 self.gauge(r"gls_cache\..*\.waiters"))):
            if value != 0:
                found.append("%s is %r after the drive, not 0"
                             % (name, value))
        premise, holds = PREMISES[workload]
        if not holds(layer, counts):
            found.append("premise broken: %s" % premise)
        return found


def run(workload: str, seed: int, scale: int, traced: bool) -> dict:
    """Set up, drive once, measure, check; returns the drive's record."""
    around_setup = Calibrator()
    around_setup.sample(SETUP_PASSES)
    prepared = WORKLOADS[workload](seed, scale)
    around_setup.sample(SETUP_PASSES)
    # CPU since the interpreter started: imports, build, PKI, publish,
    # settle, warm.
    setup_raw = cpu_clock() - around_setup.spent

    observed = Observed(prepared, traced)
    recorder = observed.recorder
    layer = observed.layer_counts()
    counts = {"attempted": recorder.attempted, "ok": recorder.ok,
              "failed": recorder.failed, "writes": recorder.writes,
              "events": observed.events}
    record = {
        "workload": workload, "seed": seed, "scale": scale,
        "setup_s": setup_raw * around_setup.factor(),
        "setup_raw_s": setup_raw,
        "drive_cpu_s": observed.cpu, "drive_raw_s": observed.raw_cpu,
        "reference_pass_s": observed.reference_pass,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counts": counts, "simulated": observed.simulated(), "layer": layer,
        "complaints": observed.complaints(workload, layer, counts),
        "errors": recorder.errors,
    }
    if observed.sampler is not None:
        record["trace"] = dict(observed.sampler.shares(),
                               samples=observed.sampler.samples)
    return record


def main(argv: List[str]) -> int:
    workload, seed, scale, traced = argv
    record = run(workload, int(seed), int(scale), traced == "1")
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
