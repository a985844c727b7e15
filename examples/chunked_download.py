#!/usr/bin/env python3
"""Resumable chunked downloads riding out crashes and partitions.

A large package moves as chunk GETs (four chunks to a request) with
client-side reassembly, per-chunk integrity verification, and a
*persistent resume token* (``repro.gdn.transfer.ChunkedDownloader``).  Three acts, one download
each, everything on a scripted clock:

* **act 1 — server crash**: the only serving GOS crashes mid-transfer
  and reboots from stable storage a while later.  The budgeted
  download retries under jittered exponential backoff, restarts from
  its checkpointed token, and finishes without re-fetching verified
  chunks.
* **act 2 — client crash**: the downloading browser "crashes" (we
  throw it away) mid-transfer.  A brand-new browser — rebinding
  through the GLS exactly like a rebooted machine — picks up the
  token persisted by the checkpoint callback and resumes from the
  last verified chunk.
* **act 3 — partition**: the client's site falls off the internet for
  a while mid-transfer; the download rides the outage out on its
  retry budget and resumes when the network heals.

Every byte is verified against the manifest's per-chunk digests, and
the closing telemetry shows the point of resumption: interrupted
transfers, yes — wasted re-fetched bytes, (almost) none.

Run:  python examples/chunked_download.py
(set GDN_EXAMPLE_SCALE=small for a reduced CI-sized run)
"""

import hashlib
import os
import sys

from repro.gdn.deployment import GdnDeployment
from repro.gdn.scenario import ReplicationScenario
from repro.gdn.transfer import (ResumeToken, TransferBudgetExhausted,
                                TransferError)
from repro.sim.failures import FailureInjector
from repro.sim.retry import ExponentialBackoff, RetryBudget
from repro.sim.topology import Topology
from repro.workloads.packages import synthetic_file

SMALL = os.environ.get("GDN_EXAMPLE_SCALE", "").lower() in ("small", "ci")
CHUNK = 2048
CHUNKS = 24 if SMALL else 48

PACKAGE = "/apps/devel/BigTarball"
FILE = "big.tar.gz"
CLIENT_SITE = "r1/c0/m0/s0"


def build():
    """One serving GOS; the access point is neither colocated with it
    nor caching, so every chunk crosses the wide area — the path the
    resume token has to protect."""
    topology = Topology.balanced(regions=2, countries=1, cities=1,
                                 sites=2)
    gdn = GdnDeployment(topology=topology, seed=41, secure=False)
    gos = gdn.add_gos("gos-0", "r0/c0/m0/s0")
    gdn.add_httpd("ap", site="r0/c0/m0/s1",
                  cache_policy=lambda _name: None)
    gdn.initial_sync()
    moderator = gdn.add_moderator("mod", "r0/c0/m0/s1")
    payload = synthetic_file("big-tarball", CHUNK * CHUNKS)

    def publish():
        yield from moderator.create_package(
            PACKAGE, {FILE: payload},
            ReplicationScenario.single_server("gos-0", cache_ttl=None))

    gdn.run(publish(), host=moderator.host)
    gdn.settle(2.0)
    return gdn, gos, payload


def run_act(title, fault, new_browser_on_restart=False):
    """One download across one scripted fault; returns telemetry."""
    gdn, gos, payload = build()
    world = gdn.world
    # Two attempts per chunk round: a download round caught by a fault
    # fails fast, restarts from the checkpointed token, and the act's
    # resumption count stays visible (a patient policy would just ride
    # the outage out *inside* one round).
    downloader = gdn.chunked_downloader(
        policy=ExponentialBackoff(timeout=2.0, retries=1, base=0.5,
                                  multiplier=2.0, max_delay=4.0,
                                  jitter=0.5),
        budget=RetryBudget(rate=2.0, burst=64.0), chunk_size=CHUNK)
    injector = FailureInjector(world)
    base = world.now
    # The download starts immediately and runs for a few simulated
    # seconds, so a fault two seconds in lands mid-transfer at either
    # scale.
    if fault == "crash":
        injector.crash_restart(gos.host, base + 2.0, base + 8.0,
                               recover=lambda: gos.host.spawn(
                                   gos.recover()))
    elif fault == "partition":
        injector.partition_domain(world.topology.site(CLIENT_SITE),
                                  base + 2.0, 12.0)

    browsers = [gdn.add_browser("user-0", CLIENT_SITE)]
    disk = {}  # the checkpoint callback's "stable storage"

    def checkpoint(token):
        disk["wire"] = token.to_wire()

    def download():
        interruptions = 0
        for attempt in range(12):
            token = (ResumeToken.from_wire(disk["wire"])
                     if "wire" in disk else None)
            try:
                data, _token = yield from downloader.download(
                    browsers[-1], PACKAGE, FILE, token=token,
                    checkpoint=checkpoint)
            except TransferBudgetExhausted:
                raise
            except TransferError as error:
                interruptions += 1
                on_disk = (len(ResumeToken.from_wire(disk["wire"]).chunks)
                           if "wire" in disk else 0)
                print("   t=%5.1fs  interrupted (%s); %d/%d chunks "
                      "safe on disk"
                      % (world.now - base, type(error).__name__,
                         on_disk, CHUNKS))
                if new_browser_on_restart:
                    # The "client reboot": a fresh host, a fresh GLS
                    # rebind — only the persisted token survives.
                    browsers.append(gdn.add_browser(
                        "user-%d" % len(browsers), CLIENT_SITE))
                yield world.sim.timeout(2.0)
                continue
            assert data == payload
            print("   t=%5.1fs  complete after %d interruption(s); "
                  "sha256 %s..." % (world.now - base, interruptions,
                                    hashlib.sha256(data).hexdigest()[:12]))
            return
        raise AssertionError("download never completed")

    print("%s" % title)
    gdn.run(download(), limit=1e9)
    print("   resumes=%d  chunks retried=%d  re-fetched bytes=%d "
          "(ratio %.3f)"
          % (downloader.resumes, downloader.chunks_retried,
             downloader.bytes_refetched, downloader.refetch_ratio()))
    return downloader


def main():
    print("== Chunked downloads vs crashes and partitions ==")
    print("(%d chunks of %d bytes, one serving GOS, cross-region "
        "client)\n" % (CHUNKS, CHUNK))
    acts = [
        run_act("act 1: serving GOS crashes, reboots from stable "
                "storage", fault="crash"),
        run_act("act 2: the *client* crashes; a new browser resumes "
                "from the persisted token", fault="crash",
                new_browser_on_restart=True),
        run_act("act 3: the client's site is partitioned off the "
                "internet", fault="partition"),
    ]
    failures = []
    for index, downloader in enumerate(acts):
        if downloader.transfers_completed < 1:
            failures.append("act %d never completed" % (index + 1))
        if downloader.resumes < 1:
            failures.append("act %d never resumed" % (index + 1))
        if downloader.refetch_ratio() > 0.25:
            failures.append("act %d re-fetched %.0f%% of its bytes"
                            % (index + 1,
                               downloader.refetch_ratio() * 100.0))
    if failures:
        print("\nFAILED: %s" % "; ".join(failures))
        return 1
    print("\nevery act completed by *resuming*, not restarting: the")
    print("persistent token turns a mid-transfer crash into a few")
    print("retried chunks instead of a full re-download.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
