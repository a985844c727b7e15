"""Unit tests for replication scenarios and the adaptive advisor."""

import pytest

from repro.gdn.scenario import (ObjectUsage, ReplicationScenario,
                                ScenarioAdvisor)


def test_scenario_roles():
    single = ReplicationScenario.single_server("gos-a")
    assert single.master_role == "server"
    assert single.replica_count == 1
    replicated = ReplicationScenario.master_slave("gos-a", ["gos-b"])
    assert replicated.master_role == "master"
    assert replicated.slave_gos == ["gos-b"]
    assert replicated.replica_count == 2


def test_scenario_validation():
    for protocol in ("gossip", "active"):   # §3.3 active: not reproduced
        with pytest.raises(ValueError):
            ReplicationScenario(protocol, "gos-a")
    with pytest.raises(ValueError):
        ReplicationScenario("client_server", "gos-a", ["gos-b"])


def test_usage_statistics():
    usage = ObjectUsage({"r0": 90, "r1": 10}, writes=5, size=1000)
    assert usage.reads == 100
    assert usage.read_write_ratio == 20.0
    assert usage.hot_regions() == ["r0", "r1"]
    assert usage.hot_regions(min_share=0.5) == ["r0"]


def test_advisor_cold_object_gets_single_server():
    advisor = ScenarioAdvisor({"r0": "gos-0", "r1": "gos-1"})
    scenario = advisor.recommend(ObjectUsage({"r1": 3}, writes=0))
    assert scenario.protocol == "client_server"
    assert scenario.master_gos == "gos-1"  # placed with its readers


def test_advisor_hot_read_mostly_gets_replicas_in_hot_regions():
    advisor = ScenarioAdvisor({"r0": "gos-0", "r1": "gos-1", "r2": "gos-2"})
    usage = ObjectUsage({"r0": 500, "r1": 400, "r2": 10}, writes=2)
    scenario = advisor.recommend(usage)
    assert scenario.protocol == "master_slave"
    assert scenario.master_gos == "gos-0"
    assert scenario.slave_gos == ["gos-1"]  # r2 is below the hot share
    assert scenario.cache_ttl == 600.0


def test_advisor_write_heavy_keeps_single_copy_short_caches():
    advisor = ScenarioAdvisor({"r0": "gos-0", "r1": "gos-1"})
    usage = ObjectUsage({"r0": 200}, writes=100)
    scenario = advisor.recommend(usage)
    assert scenario.protocol == "client_server"
    assert scenario.cache_ttl == 10.0


def test_advisor_unknown_region_falls_back_home():
    advisor = ScenarioAdvisor({"r0": "gos-0"}, home_region="r0")
    scenario = advisor.recommend(ObjectUsage({"r9": 1000}, writes=0))
    assert scenario.master_gos == "gos-0"


def test_advisor_needs_servers():
    with pytest.raises(ValueError):
        ScenarioAdvisor({})
