"""Experiment E8 — §4/§6.1: failures, persistence, recovery.

The paper requires Globe Object Servers to "save their state during a
reboot and reconstruct themselves afterwards" (§4) and lists host and
network failures as availability threats (§6.1).  We crash one
replica's machine mid-workload and measure:

* client-visible failures while the machine is down: the user's
  browser, near the slave, reaches the GDN through the HTTPD colocated
  on the crashed machine, and a browser has no other access point, so
  every download of that phase fails (rebinding to a live replica is
  what an HTTPD does when its replica dies, and E8 has no such user),
* the recovery: the reboot rebuilds the GOS from stable storage (its
  slaves re-join their master and catch up on writes missed while
  down) and the access point with empty caches,
* a GLS directory-node crash and recovery from its persisted records.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.metrics import Series
from ..analysis.tables import Table, format_seconds
from ..gdn.deployment import GdnDeployment, standard_spec
from ..gdn.scenario import ReplicationScenario
from ..workloads.packages import synthetic_file

__all__ = ["run_recovery_experiment", "format_result"]


def run_recovery_experiment(seed: int = 31, downloads: int = 30) -> Dict:
    gdn = GdnDeployment.from_spec({
        **standard_spec(2, 2, 1, 2), "seed": seed, "secure": False,
        "moderators": {"mod": "r0/c0/m0/s1"}})
    moderator = gdn.moderators["mod"]
    files = {"README": synthetic_file("e8", 2_000),
             "data/blob": synthetic_file("e8-blob", 40_000)}
    oid = gdn.run(moderator.create_package(
        "/apps/net/e8pkg", files,
        ReplicationScenario.master_slave("gos-r0-0", ["gos-r1-0"],
                                         cache_ttl=5.0)), host=moderator.host)
    gdn.settle(5.0)

    slave_host = gdn.object_servers["gos-r1-0"].host
    browser = gdn.add_browser("user", "r1/c1/m0/s1")  # near the slave
    ok_before = Series("before")
    failures_during = 0
    ok_during = 0
    ok_after = Series("after")

    def phase(series_or_none, count):
        nonlocal failures_during, ok_during
        for _ in range(count):
            try:
                response = yield from browser.download("/apps/net/e8pkg",
                                                       "README")
            except Exception:  # noqa: BLE001 - connection to dead AP
                failures_during += 1
                continue
            if response.ok:
                if series_or_none is not None:
                    series_or_none.add(response.elapsed)
                else:
                    ok_during += 1
            else:
                failures_during += 1
            yield gdn.world.sim.timeout(1.0)

    # Phase 1: healthy.
    gdn.run(phase(ok_before, downloads), host=browser.host)

    # Phase 2: the slave's machine (GOS + colocated HTTPD) dies.
    slave_host.crash()
    gdn.run(phase(None, downloads), host=browser.host)

    # While down, the master takes a write the slave must catch up on.
    gdn.run(moderator.update_package(
        "/apps/net/e8pkg", add_files={"NEWS": synthetic_file("e8-news", 500)}),
        host=moderator.host)

    # Phase 3: reboot + recovery, then downloads again.
    slave_host.restart()
    slave = gdn.object_servers["gos-r1-0"]  # the new incarnation
    gdn.world.run_until(slave.host.recovery)
    gdn.run(phase(ok_after, downloads), host=browser.host)

    slave_lr = slave.replicas[oid.hex]
    caught_up = (slave_lr.semantics.getFileContents("NEWS")
                 == synthetic_file("e8-news", 500))

    # -- GLS node crash/recovery -----------------------------------------
    leaf = gdn.gls.node_for("r0/c0/m0/s0", oid.hex)
    records_before = len(leaf.records)
    leaf.host.crash()
    leaf.host.restart()
    leaf = gdn.gls.node_for("r0/c0/m0/s0", oid.hex)  # the new incarnation
    gdn.world.run_until(leaf.host.recovery)
    gls_recovered = len(leaf.records) == records_before and records_before > 0

    return {
        "downloads_per_phase": downloads,
        "before": ok_before,
        "failures_during": failures_during,
        "ok_during": ok_during,
        "after": ok_after,
        "slave_caught_up": caught_up,
        "gls_records_recovered": gls_recovered,
    }


def format_result(result: Dict) -> str:
    table = Table(["phase", "successful downloads", "mean latency",
                   "failures"],
                  title="E8 / §4 - replica machine crash and reboot "
                        "recovery (%d downloads per phase)"
                        % result["downloads_per_phase"])
    table.add_row("healthy", result["before"].count,
                  format_seconds(result["before"].mean), 0)
    table.add_row("replica host down", result["ok_during"], "-",
                  result["failures_during"])
    table.add_row("after recovery", result["after"].count,
                  format_seconds(result["after"].mean), 0)
    lines = [table.render()]
    lines.append("slave re-joined master and caught up on missed "
                 "writes: %s" % result["slave_caught_up"])
    lines.append("GLS directory node recovered its records from "
                 "stable storage: %s" % result["gls_records_recovered"])
    return "\n".join(lines)


def assert_shape(result: Dict) -> None:
    assert result["before"].count == result["downloads_per_phase"]
    assert result["after"].count == result["downloads_per_phase"]
    assert result["slave_caught_up"]
    assert result["gls_records_recovered"]
