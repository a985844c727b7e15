#!/usr/bin/env python3
"""Surviving a flash crowd by adapting one object's scenario (§3.1).

"the information's replication scenario should adapt to changes in its
popularity and rate of change."  A new Linux release starts with a
master replica in its maintainer's region.  A flash crowd arrives from
the other side of the world; every download crosses the world to the
single replica.  The moderator reacts with one command — *add a replica
near the crowd* (`ModeratorTool.add_replica`).  Nothing else changes:
the name still maps to the same OID, the GLS simply starts answering
lookups in that region with the nearer contact address, and the HTTPDs'
soft-state bindings pick it up.

Run:  python examples/flash_crowd.py
(set GDN_EXAMPLE_SCALE=small for a reduced CI-sized run)
"""

import os

from repro.gdn.deployment import GdnDeployment, standard_spec
from repro.gdn.scenario import ReplicationScenario
from repro.workloads.loadgen import FlashCrowdSchedule, LoadStats
from repro.workloads.packages import synthetic_file
from repro.workloads.scenario import OpenLoopScenario

SMALL = os.environ.get("GDN_EXAMPLE_SCALE", "").lower() in ("small", "ci")
CROWD = 4 if SMALL else 8

PACKAGE = "/os/distributions/PenguinOS"
FILES = {"README": synthetic_file("penguin-readme", 1_500),
         "iso/penguin-1.0.iso": synthetic_file("penguin-iso", 900_000)}


def crowd_downloads(gdn, count, label):
    """``count`` users from region r1 fetch the ISO; report stats.

    An open-loop spike (FlashCrowdSchedule): the release announcement
    lands and requests arrive at the peak rate whether or not earlier
    downloads have finished — nobody's browser waits for a stranger's.
    """
    crowd_sites = [gdn.world.topology.site("r1/c0/m0/s0"),
                   gdn.world.topology.site("r1/c1/m0/s1")]
    browser_for = gdn.browser_pool("crowd-" + label.replace(" ", "-"))

    def one_download(arrival):
        response = yield from browser_for(arrival.site).download(
            PACKAGE, "iso/penguin-1.0.iso")
        assert response.ok, response.status
        return True

    schedule = FlashCrowdSchedule(base_rate=0.2, peak_rate=4.0,
                                  spike_start=0.0, spike_duration=10.0)
    scenario = OpenLoopScenario(schedule, count, sites=crowd_sites,
                                label="crowd-" + label)
    stats = LoadStats()
    gdn.run(scenario.drive(gdn.world.sim, one_download,
                           rng=gdn.world.rng_for("crowd-" + label),
                           stats=stats), limit=1e9)
    browser_for.close()
    mean = stats.latency.mean
    print("  %-24s mean download %7.1f ms  (%d ok, %d failed)"
          % (label + ":", mean * 1e3, stats.ok, stats.failed))
    return mean


def main():
    print("== Flash crowd on a fresh release (paper §3.1) ==\n")
    spec = standard_spec(2, 2, 1, 2)
    # Short binding TTL so access points re-consult the GLS quickly;
    # no HTTPD caching of the 900 KB ISO (caches would blunt the point).
    for httpd in spec["httpds"].values():
        httpd.update(binding_ttl=30.0, cache_ttl=None)
    gdn = GdnDeployment.from_spec({
        **spec, "seed": 77, "secure": False,
        "moderators": {"mod": "r0/c0/m0/s1"}})
    moderator = gdn.moderators["mod"]
    gdn.run(moderator.create_package(
        PACKAGE, FILES,
        ReplicationScenario.master_slave("gos-r0-0", slaves=[])),
        host=moderator.host)
    gdn.settle(2.0)
    print("published %s (ISO: 900 KB), master replica on gos-r0-0 only\n"
          % PACKAGE)

    print("flash crowd from region r1 — every ISO crosses the world:")
    slow = crowd_downloads(gdn, CROWD, "single replica")
    wan_before = gdn.world.network.meter.wide_area_bytes()

    gdn.run(moderator.add_replica(PACKAGE, "gos-r1-0"), host=moderator.host)
    gdn.settle(60.0)  # state transfer + binding TTLs expire
    print("\nmoderator ran add_replica(%r, 'gos-r1-0')\n" % PACKAGE)

    print("same crowd, after the scenario adapted:")
    fast = crowd_downloads(gdn, CROWD, "replica in r1")
    wan_after = gdn.world.network.meter.wide_area_bytes()

    print("\nspeedup from one replica near the crowd: %.1fx"
          % (slow / fast))
    print("wide-area bytes for the second crowd: %d (first: %d)"
          % (wan_after - wan_before, wan_before))


if __name__ == "__main__":
    main()
