"""Baseline: one-size-fits-all replication scenarios (paper §3.1).

The paper's motivating study compares "situations in which a single
replication scenario is used for the whole site" against per-object
assignment.  These factories produce that single scenario for every
object, to plug into the same deployment machinery the adaptive
advisor uses (experiment E5).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..gdn.scenario import ObjectUsage, ReplicationScenario

__all__ = ["uniform_single_server", "uniform_replicate_everywhere",
           "uniform_cache_only", "UNIFORM_STRATEGIES"]


def uniform_single_server(home_gos: str
                          ) -> Callable[[str, ObjectUsage],
                                        ReplicationScenario]:
    """Every object lives on one server; no caching (the NoRepl case)."""

    def assign(_name: str, _usage: ObjectUsage) -> ReplicationScenario:
        return ReplicationScenario.single_server(home_gos, cache_ttl=None)

    return assign


def uniform_replicate_everywhere(home_gos: str, all_gos: List[str]
                                 ) -> Callable[[str, ObjectUsage],
                                               ReplicationScenario]:
    """Every object gets a replica on every server (mirror-like), with
    HTTPD caches of a 600 s TTL in front."""
    slaves = [gos for gos in all_gos if gos != home_gos]

    def assign(_name: str, _usage: ObjectUsage) -> ReplicationScenario:
        return ReplicationScenario.master_slave(home_gos, list(slaves),
                                                cache_ttl=600.0)

    return assign


def uniform_cache_only(home_gos: str
                       ) -> Callable[[str, ObjectUsage],
                                     ReplicationScenario]:
    """One authoritative copy; HTTPDs cache with a fixed 60 s TTL."""

    def assign(_name: str, _usage: ObjectUsage) -> ReplicationScenario:
        return ReplicationScenario.single_server(home_gos, cache_ttl=60.0)

    return assign


def UNIFORM_STRATEGIES(home_gos: str, all_gos: List[str]
                       ) -> Dict[str, Callable]:
    """The named uniform strategies compared in experiment E5."""
    return {
        "NoRepl": uniform_single_server(home_gos),
        "CacheTTL": uniform_cache_only(home_gos),
        "ReplAll": uniform_replicate_everywhere(home_gos, all_gos),
    }
