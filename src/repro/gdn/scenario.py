"""Replication scenarios and per-object scenario assignment (§3.1).

"We use the term replication scenario to denote a specification of how
(using what replication protocol) and where (which machines should host
replicas) information or objects should be replicated."

The :class:`ScenarioAdvisor` reproduces the policy conclusion of the
Pierre et al. study the paper builds on: choose each object's scenario
from its own usage pattern — popularity, update rate, and where its
readers are — instead of one site-wide scheme.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["ReplicationScenario", "ObjectUsage", "ScenarioAdvisor"]


class ReplicationScenario:
    """How and where one DSO is replicated.

    ``protocol`` is ``client_server`` (one server, no extra replicas)
    or ``master_slave`` (a master on ``master_gos``, a slave on each of
    ``slave_gos``); §3.3's active replication is not reproduced.
    """

    def __init__(self, protocol: str, master_gos: str,
                 slave_gos: Optional[List[str]] = None,
                 cache_ttl: Optional[float] = None):
        if protocol not in ("client_server", "master_slave"):
            raise ValueError("unknown replication protocol %r" % protocol)
        self.protocol = protocol
        self.master_gos = master_gos
        self.slave_gos = list(slave_gos or [])
        #: TTL for caching representatives in HTTPDs/proxies; None
        #: disables caching for this object.
        self.cache_ttl = cache_ttl
        if protocol == "client_server" and self.slave_gos:
            raise ValueError("client/server allows no extra replicas")

    @property
    def master_role(self) -> str:
        return "server" if self.protocol == "client_server" else "master"

    @property
    def replica_count(self) -> int:
        return 1 + len(self.slave_gos)

    @classmethod
    def single_server(cls, gos: str,
                      cache_ttl: Optional[float] = None
                      ) -> "ReplicationScenario":
        return cls("client_server", gos, cache_ttl=cache_ttl)

    @classmethod
    def master_slave(cls, master: str, slaves: List[str],
                     cache_ttl: Optional[float] = None
                     ) -> "ReplicationScenario":
        return cls("master_slave", master, slaves, cache_ttl=cache_ttl)

    def __repr__(self) -> str:
        return ("ReplicationScenario(%s @ %s + %d slaves, ttl=%s)"
                % (self.protocol, self.master_gos, len(self.slave_gos),
                   self.cache_ttl))


class ObjectUsage:
    """Observed (or predicted) usage pattern of one object."""

    def __init__(self, reads_by_region: Optional[Dict[str, int]] = None,
                 writes: int = 0, size: int = 0):
        self.reads_by_region = dict(reads_by_region or {})
        self.writes = writes
        self.size = size

    @property
    def reads(self) -> int:
        return sum(self.reads_by_region.values())

    @property
    def read_write_ratio(self) -> float:
        return self.reads / max(1, self.writes)

    def hot_regions(self, min_share: float = 0.10) -> List[str]:
        """Regions contributing at least ``min_share`` of the reads."""
        total = max(1, self.reads)
        return sorted(region
                      for region, count in self.reads_by_region.items()
                      if count / total >= min_share)


class ScenarioAdvisor:
    """Per-object scenario assignment from usage patterns.

    The decision mirrors the replication cost model of §3.1: replicas
    save wide-area read traffic proportional to remote demand but cost
    update traffic proportional to write rate × state size, plus disk.
    Heuristic:

    * cold objects: a single server near their busiest region;
    * read-mostly popular objects: a master plus slaves in every hot
      region, and long cache TTLs in front;
    * write-heavy objects: keep replicas few and caches short-lived so
      consistency traffic does not dominate.
    """

    def __init__(self, gos_by_region: Dict[str, str],
                 home_region: Optional[str] = None,
                 popularity_threshold: int = 50,
                 ratio_threshold: float = 10.0):
        """``gos_by_region`` maps a region path (e.g. ``"r0"``) to the
        name of an object server in that region."""
        if not gos_by_region:
            raise ValueError("need at least one object server")
        self.gos_by_region = dict(gos_by_region)
        self.home_region = home_region or sorted(gos_by_region)[0]
        self.popularity_threshold = popularity_threshold
        self.ratio_threshold = ratio_threshold

    def _busiest_region(self, usage: ObjectUsage) -> str:
        candidates = {region: count
                      for region, count in usage.reads_by_region.items()
                      if region in self.gos_by_region}
        if not candidates:
            return self.home_region
        # Deterministic tie-break by region name.
        return max(sorted(candidates), key=lambda r: candidates[r])

    def recommend(self, usage: ObjectUsage) -> ReplicationScenario:
        busiest = self._busiest_region(usage)
        home_gos = self.gos_by_region[busiest]
        if usage.reads < self.popularity_threshold:
            # Cold: one copy, placed with its readers; modest caching.
            return ReplicationScenario.single_server(home_gos,
                                                     cache_ttl=60.0)
        if usage.read_write_ratio >= self.ratio_threshold:
            # Hot and read-mostly: replicas in every hot region.
            slaves = [self.gos_by_region[region]
                      for region in usage.hot_regions()
                      if region in self.gos_by_region
                      and self.gos_by_region[region] != home_gos]
            return ReplicationScenario.master_slave(
                home_gos, slaves, cache_ttl=600.0)
        # Hot but write-heavy: single authoritative copy, short caches.
        return ReplicationScenario.single_server(home_gos, cache_ttl=10.0)
