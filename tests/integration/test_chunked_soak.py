"""Chunked-transfer resilience soaks (ISSUE 9 tentpole).

Two fault scenarios against the same budgeted chunked-download
driver — the serving GOS crashing mid-transfer, and the client's
domain partitioning mid-transfer — judged by
:meth:`Soak.chunked_transfer_invariant`.  The asymmetry is the point:

* with resumption on, an interrupted download restarts from its
  checkpointed :class:`ResumeToken` and re-fetches (almost) nothing,
  so the shared retry budget easily covers the fault;
* with resumption off, every restart re-fetches all previously
  verified chunks, each re-fetch charges the budget, and the budget
  runs dry before the transfer can finish — the `transfer-completes`
  invariant fails.

A third pair of tests pins trace-replay determinism: the same seed
and fault schedule reproduce byte-identical LoadStats and downloader
counters, for the jittered reference policy and for the legacy
:class:`FixedRetry` discipline alike.
"""

from __future__ import annotations

from repro.gdn.deployment import GdnDeployment
from repro.gdn.scenario import ReplicationScenario
from repro.gdn.transfer import (ResumeToken, TransferBudgetExhausted,
                                TransferError)
from repro.sim.retry import ExponentialBackoff, FixedRetry, RetryBudget
from repro.sim.topology import Topology
from repro.workloads.packages import synthetic_file
from repro.workloads.scenario import ClosedLoopScenario, Soak

PACKAGE = "/apps/devel/BigTarball"
_FILE = "big.tar.gz"
CHUNK = 2048
CHUNKS = 48
PAYLOAD = synthetic_file("big-tarball", CHUNK * CHUNKS)

#: Fault window, relative to the start of the drive.  A fault-free
#: transfer takes ~4.6 simulated seconds (the manifest, then 48 chunks
#: a window at a time: 13 cross-region round trips), and the waves
#: start at 2 s and 8.6 s, so a [10, 40) window lands mid-transfer in
#: the second wave.
FAULT_AT = 10.0
FAULT_ENDS = 40.0

#: Two partitions of the clients' site, ``(start, duration)`` into the
#: drive: the first while every first-wave transfer is mid-chunk, the
#: second catching the last wave (~37-41 s) after the others finished.
TWO_PARTITIONS = ((4.0, 20.0), (38.0, 15.0))

CLIENTS = 2
REQUESTS_EACH = 3


def _run_soak(resume, fault, policy=None, budget_burst=16.0, seed=13,
              partitions=((FAULT_AT, FAULT_ENDS - FAULT_AT),)):
    """Drive budgeted chunked downloads across a fault; return
    ``(report, downloader, gdn)``.

    ``fault`` is ``"crash"`` (the single serving GOS reboots) or
    ``"partition"`` (the clients' site drops off the network during
    each ``(start, duration)`` of ``partitions``).
    """
    topology = Topology.balanced(regions=2, countries=1, cities=1,
                                 sites=2)
    gdn = GdnDeployment(topology=topology, seed=seed, secure=False)
    gos = gdn.add_gos("gos-0", "r0/c0/m0/s0")
    # The access point must survive the GOS crash, so it is *not*
    # colocated — and it is a pure proxy (no representative caching):
    # every chunk read traverses to the object server.
    gdn.add_httpd("ap", site="r0/c0/m0/s1",
                  cache_policy=lambda _name: None)
    gdn.initial_sync()
    moderator = gdn.add_moderator("mod", "r0/c0/m0/s1")

    def publish():
        yield from moderator.create_package(
            PACKAGE, {_FILE: PAYLOAD},
            ReplicationScenario.single_server("gos-0", cache_ttl=None))

    gdn.run(publish(), host=moderator.host)
    gdn.settle(2.0)

    if policy is None:
        policy = ExponentialBackoff(timeout=2.0, retries=2, base=0.5,
                                    multiplier=2.0, max_delay=4.0,
                                    jitter=0.5)
    budget = RetryBudget(rate=0.0, burst=budget_burst)
    downloader = gdn.chunked_downloader(policy=policy, budget=budget,
                                        resume=resume, chunk_size=CHUNK)
    browser_for = gdn.browser_pool("soak")
    sim = gdn.world.sim

    def one_transfer(arrival):
        """One logical download: restart on transient failure, resume
        from the checkpointed token — the crashed-browser protocol."""
        browser = browser_for(arrival.site)
        saved = {}

        def checkpoint(token):
            saved["wire"] = token.to_wire()

        for _attempt in range(12):
            token = (ResumeToken.from_wire(saved["wire"])
                     if "wire" in saved else None)
            try:
                data, _token = yield from downloader.download(
                    browser, PACKAGE, _FILE, token=token,
                    checkpoint=checkpoint)
            except TransferBudgetExhausted:
                raise      # permanent: the budget is gone for good
            except TransferError:
                yield sim.timeout(2.0)
                continue
            assert data == PAYLOAD
            return True
        raise AssertionError("transfer never completed")

    scenario = ClosedLoopScenario(
        CLIENTS, 2.0, requests_per_client=REQUESTS_EACH,
        sites=[gdn.world.topology.site("r1/c0/m0/s0")], think="fixed",
        label="chunked-%s" % fault)
    soak = Soak(gdn.world, scenario, one_transfer,
                rng=gdn.world.rng_for("chunked-soak"))
    base = gdn.world.now
    if fault == "crash":
        soak.crash_restart(gos.host, base + FAULT_AT, base + FAULT_ENDS,
                           recover=lambda: gos.host.spawn(gos.recover()))
    elif fault == "partition":
        for start, duration in partitions:
            soak.partition(gdn.world.topology.site("r1/c0/m0/s0"),
                           base + start, duration)
    else:
        raise ValueError(fault)
    soak.chunked_transfer_invariant(
        downloader, min_completed=CLIENTS * REQUESTS_EACH)
    report = soak.run()
    browser_for.close()
    return report, downloader, gdn


# -- crash-mid-transfer -------------------------------------------------------


def test_crash_mid_transfer_completes_with_resume():
    report, downloader, _gdn = _run_soak(resume=True, fault="crash")
    assert report.ok, report.failures
    # The fault really interrupted transfers, and resumption is what
    # carried them over it.
    assert downloader.resumes > 0
    assert downloader.transfers_failed > 0
    assert report.stats.ok == CLIENTS * REQUESTS_EACH
    # Resumption re-fetched (almost) nothing.
    assert downloader.refetch_ratio() <= 0.1


def test_crash_mid_transfer_fails_without_resume():
    """Restart-from-zero re-fetches every verified chunk, each
    re-fetch charges the budget, and the budget runs dry."""
    report, downloader, _gdn = _run_soak(resume=False, fault="crash")
    assert not report.ok
    failed = dict(report.failures)
    assert "transfer-completes" in failed
    assert "budget" in failed["transfer-completes"]
    assert downloader.budget_exhausted > 0
    assert downloader.resumes == 0


# -- partition-mid-transfer ---------------------------------------------------


def _completes_through_partitions(**partitions):
    report, downloader, _gdn = _run_soak(resume=True, fault="partition",
                                         **partitions)
    assert report.ok, report.failures
    assert downloader.resumes > 0
    assert report.stats.ok == CLIENTS * REQUESTS_EACH
    assert downloader.refetch_ratio() <= 0.1


def test_partition_mid_transfer_completes_with_resume():
    _completes_through_partitions()


def test_two_partitions_mid_transfer_complete_with_resume():
    _completes_through_partitions(partitions=TWO_PARTITIONS)


def test_partition_mid_transfer_fails_without_resume():
    report, downloader, _gdn = _run_soak(resume=False, fault="partition")
    assert not report.ok
    assert "transfer-completes" in dict(report.failures)
    assert downloader.budget_exhausted > 0


# -- trace-replay determinism -------------------------------------------------


def _fingerprint(report, downloader, gdn):
    return (report.stats.summary(),
            report.stats.latency.state(),
            gdn.world.sim.events_processed,
            downloader.chunks_ok, downloader.chunks_retried,
            downloader.resumes, downloader.bytes_fetched,
            downloader.bytes_refetched,
            downloader.budget.granted, downloader.budget.denied)


def test_faulted_transfer_replay_is_deterministic():
    """Same seed + same fault schedule ⇒ byte-identical stats and
    identical chunk retry/resume counters."""
    first = _fingerprint(*_run_soak(resume=True, fault="crash"))
    again = _fingerprint(*_run_soak(resume=True, fault="crash"))
    assert first == again


def test_fixed_retry_transfer_replay_is_deterministic():
    """The legacy no-backoff discipline replays identically too (it
    must never draw from the jitter RNG)."""
    legacy = FixedRetry(timeout=2.0, retries=2)
    first = _fingerprint(*_run_soak(resume=True, fault="partition",
                                    policy=legacy, budget_burst=24.0))
    again = _fingerprint(*_run_soak(resume=True, fault="partition",
                                    policy=FixedRetry(timeout=2.0,
                                                      retries=2),
                                    budget_burst=24.0))
    assert first == again
