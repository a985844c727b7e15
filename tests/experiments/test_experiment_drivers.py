"""Smoke tests for every experiment driver, at reduced scale.

These protect the benchmark harness: each driver must run, produce a
formatted table, and keep the qualitative shape its benchmark asserts
(the benches re-check at full scale).
"""

import pytest

from repro.experiments import (ablations, e1_dso_invocation,
                               e2_gls_locality, e3_end_to_end, e4_security,
                               e5_adaptive, e6_partitioning,
                               e7_gns_resolution, e8_recovery, e9_policy,
                               e10_load_scaling)


def test_e1_driver():
    result = e1_dso_invocation.run_dso_invocation_experiment(
        calls_per_point=3)
    text = e1_dso_invocation.format_result(result)
    assert "cross world" in text
    rows = {row["representative"]: row for row in result["rows"]}
    assert rows["cache role (fresh copy)"]["read_small"] == 0.0


def test_e2_driver():
    result = e2_gls_locality.run_gls_locality_experiment(
        lookups_per_point=2)
    e2_gls_locality.assert_proportionality(result)
    assert "WORLD" in e2_gls_locality.format_result(result)


def test_e3_driver():
    result = e3_end_to_end.run_end_to_end_experiment(
        package_count=4, read_count=40)
    www, mirror, gdn = result["rows"]
    assert gdn["latency"].mean < www["latency"].mean
    assert "GDN" in e3_end_to_end.format_result(result)


def test_e3_population_coda_serves_its_target_rate():
    # 100 browsers run one client generator each; their think time is
    # sized to issue the trace's 40 requests over the 20 s drive, and
    # the drive ends with its deadline, so the coda reads ~2 req/s.
    result = e3_end_to_end.run_end_to_end_experiment(
        package_count=4, read_count=40, population=100)
    coda = result["population"]
    assert coda["browsers"] == 100 and coda["failed"] == 0
    assert 30 <= coda["ok"] <= 50
    assert coda["throughput"] == pytest.approx(
        coda["ok"] / e3_end_to_end.POPULATION_DURATION, rel=0.05)
    assert "flash-crowd coda" in e3_end_to_end.format_result(result)


def test_e4_driver():
    result = e4_security.run_security_overhead_experiment()
    e4_security.assert_shape(result)
    assert "integrity only" in e4_security.format_result(result)


@pytest.mark.slow
def test_e5_driver():
    result = e5_adaptive.run_adaptive_replication_experiment(
        document_count=10, request_count=120,
        strategies=["NoRepl", "Adaptive"])
    rows = {row["strategy"]: row for row in result["rows"]}
    assert rows["Adaptive"]["latency"].mean \
        < rows["NoRepl"]["latency"].mean
    assert "Adaptive" in e5_adaptive.format_result(result)


def test_e6_driver():
    result = e6_partitioning.run_partitioning_experiment(
        object_count=16, lookups=32, subnode_counts=(1, 4))
    e6_partitioning.assert_shape(result)
    assert "subnode" in e6_partitioning.format_result(result)


def test_e7_driver():
    result = e7_gns_resolution.run_gns_resolution_experiment(
        name_count=8, batch_windows=(0.0, 1.0))
    e7_gns_resolution.assert_shape(result)
    assert "warm cache" in e7_gns_resolution.format_result(result)


def test_e8_driver():
    result = e8_recovery.run_recovery_experiment(downloads=5)
    e8_recovery.assert_shape(result)
    assert "after recovery" in e8_recovery.format_result(result)


def test_e9_driver():
    result = e9_policy.run_policy_experiment()
    e9_policy.assert_shape(result)
    assert "refused" in e9_policy.format_result(result)


def test_e10_driver():
    result = e10_load_scaling.run_load_scaling_experiment(
        loads=(40.0, 160.0), request_count=150)
    e10_load_scaling.assert_shape(result)
    assert "replicated" in e10_load_scaling.format_result(result)


def test_a1_driver():
    result = ablations.run_consistency_ablation(write_count=3,
                                                reads_per_write=3)
    push, pull = result["rows"]
    assert push["stale"] == 0
    assert "push" in ablations.format_consistency(result)


def test_a2_driver():
    result = ablations.run_mobility_ablation(moves=3, lookups_per_move=2)
    leaf, country = result["rows"]
    assert country["update"].mean < leaf["update"].mean
    assert "COUNTRY" in ablations.format_mobility(result)


def test_a3_driver():
    result = ablations.run_transport_ablation(lookups=5)
    udp, tcp = result["rows"]
    assert tcp["latency"].mean > udp["latency"].mean
    assert "UDP" in ablations.format_transport(result)
