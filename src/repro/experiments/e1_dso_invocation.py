"""Experiment E1 — Figure 1: cost of the subobject stack.

Figure 1 shows a DSO spanning address spaces through composed local
representatives.  The measurable consequence: what does a method
invocation cost depending on which representative serves it?  We
measure the same ``listContents``/``getFileContents`` calls through:

* the bare semantics subobject (no DSO machinery at all),
* a *cache-role* representative with fresh state (full marshal →
  replication → control → execute path, no network),
* a *client-role* representative bound to a replica on the same site,
* a client-role representative bound across city / region / world
  separations.

Expected shape: the subobject stack itself costs microseconds (it is
pure composition), while remote binding costs are dominated by network
separation — the paper's justification for replicas near clients.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.tables import Table, format_seconds
from ..core.ids import ObjectId
from ..gdn.deployment import GdnDeployment
from ..gdn.scenario import ReplicationScenario
from ..workloads.packages import synthetic_file

__all__ = ["run_dso_invocation_experiment", "format_result",
           "assert_shape"]

_FILES = {"README": synthetic_file("e1-readme", 2_000),
          "bin/tool": synthetic_file("e1-binary", 64_000)}

#: Client placements, by intended separation from the master replica
#: on r0/c0/m0/s0.
_PLACEMENTS = [
    ("same site", "r0/c0/m0/s0"),
    ("same city", "r0/c0/m0/s1"),
    ("same region", "r0/c1/m0/s0"),
    ("cross world", "r1/c0/m0/s0"),
]


def run_dso_invocation_experiment(seed: int = 7,
                                  calls_per_point: int = 20) -> Dict:
    """Measure invocation latency per representative kind."""
    gdn = GdnDeployment.from_spec({
        "topology": [2, 2, 1, 2], "seed": seed, "secure": False,
        "gos": {"gos-main": "r0/c0/m0/s0"},
        "moderators": {"mod": "r0/c0/m0/s1"}})
    moderator = gdn.moderators["mod"]
    oid = gdn.run(moderator.create_package(
        "/apps/devel/e1pkg", _FILES,
        ReplicationScenario.single_server("gos-main")), host=moderator.host)
    rows: List[dict] = []

    # Baseline: the bare semantics subobject, no DSO machinery: a
    # direct Python call, free in simulated time.
    rows.append({"representative": "bare semantics (no DSO)",
                 "read_small": 0.0, "read_large": 0.0,
                 "note": "direct Python call"})

    def measure(runtime, label, cache_ttl=None, note=""):
        def work():
            lr = yield from runtime.bind(ObjectId.from_hex(oid.hex),
                                         cache_ttl=cache_ttl)
            if cache_ttl is not None:
                yield from lr.invoke("listContents")  # warm the cache
            start = gdn.world.now
            for _ in range(calls_per_point):
                yield from lr.invoke("listContents")
            small = (gdn.world.now - start) / calls_per_point
            start = gdn.world.now
            for _ in range(calls_per_point):
                yield from lr.invoke("getFileContents",
                                     {"path": "bin/tool"})
            large = (gdn.world.now - start) / calls_per_point
            return small, large

        small, large = gdn.run(work(), host=runtime.host)
        rows.append({"representative": label, "read_small": small,
                     "read_large": large, "note": note})

    # Warm cache-role representative: local execution through the
    # whole stack.
    cache_host = gdn.world.host("cache-client", "r1/c1/m0/s1")
    measure(gdn._runtime(cache_host, gdn_host=True),
            "cache role (fresh copy)", cache_ttl=1e9,
            note="full stack, local state")

    # Client-role representatives at increasing separation.
    for label, site in _PLACEMENTS:
        host = gdn.world.host("client-%s" % site.replace("/", "-"), site)
        measure(gdn._runtime(host, gdn_host=True),
                "client role, %s" % label,
                note="forwarded to replica")

    return {"rows": rows, "calls_per_point": calls_per_point}


def format_result(result: Dict) -> str:
    table = Table(["representative", "listContents", "getFileContents(64KB)",
                   "note"],
                  title="E1 / Figure 1 - invocation cost through the "
                        "subobject stack (simulated time per call)")
    for row in result["rows"]:
        table.add_row(row["representative"],
                      format_seconds(row["read_small"]),
                      format_seconds(row["read_large"]),
                      row["note"])
    return table.render()


def assert_shape(result: Dict) -> None:
    """The figure's claim: the stack itself is free in simulated time,
    remote invocations cost what the network separation costs."""
    rows = {row["representative"]: row for row in result["rows"]}
    same_site = rows["client role, same site"]["read_small"]
    assert rows["cache role (fresh copy)"]["read_small"] == 0.0
    assert same_site > 0.0
    assert rows["client role, cross world"]["read_small"] > 100 * same_site
