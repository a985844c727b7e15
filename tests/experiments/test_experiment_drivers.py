"""Smoke tests for every experiment driver, at reduced scale.

Each driver must run, produce a formatted table, and keep the
qualitative shape of the paper's claim (the golden test in
``test_paper_tables.py`` checks every claim at full scale).  The claim
checks that carry a numeric bound are also fed doctored results, so a
check that stopped checking would fail here.
"""

from types import SimpleNamespace

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
    e2_gls_locality.assert_shape(result)
    assert "WORLD" in e2_gls_locality.format_result(result)


def test_e3_driver():
    result = e3_end_to_end.run_end_to_end_experiment(
        package_count=4, read_count=40)
    www, mirror, gdn = result["rows"]
    assert gdn["latency"].mean < www["latency"].mean
    assert "GDN" in e3_end_to_end.format_result(result)


def _e3_rows(www_ms=268.7, gdn_ms=118.3, www_serving=25.5,
             gdn_serving=15.1, mirror_setup=3.9, gdn_setup=3.6):
    """An E3 result carrying only what its claim reads (MiB, ms), at
    the committed table's values unless overridden."""
    def row(setup, serving, mean_ms):
        return {"setup_wan": setup * 2 ** 20,
                "serving_wan": serving * 2 ** 20,
                "latency": SimpleNamespace(mean=mean_ms / 1e3)}
    return {"rows": [row(0.0, www_serving, www_ms),
                     row(mirror_setup, 14.1, 93.3),
                     row(gdn_setup, gdn_serving, gdn_ms)]}


@pytest.mark.parametrize("doctored", [
    {"gdn_ms": 0.7 * 268.7},            # latency not well under WWW's
    {"gdn_serving": 25.5},              # serving no cheaper than WWW
    {"gdn_setup": 4.0},                 # set-up dearer than mirroring
], ids=["latency", "serving-wan", "setup-wan"])
def test_e3_claim_rejects_a_doctored_result(doctored):
    e3_end_to_end.assert_shape(_e3_rows())
    with pytest.raises(AssertionError):
        e3_end_to_end.assert_shape(_e3_rows(**doctored))


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


def _e7_result(updates=(40, 1, 1), load=None):
    """An E7 result at the committed table's values: 40 names added
    with batch windows 0.0, 0.5 and 2.0 s, and each region's cold
    queries answered by its own server."""
    return {"name_count": 40,
            "batching": [{"window": window, "updates": count}
                         for window, count in zip((0.0, 0.5, 2.0),
                                                  updates)],
            "cold": SimpleNamespace(mean=0.0915),
            "warm": SimpleNamespace(mean=0.0), "stable_after_move": True,
            "servers": ["dns-gdn-primary", "dns-gdn-sec1", "dns-gdn-sec2"],
            "server_regions": ["r0", "r1", "r2"],
            "load": load or {"r0": [40, 0, 0], "r1": [0, 40, 0],
                             "r2": [0, 0, 40]}}


@pytest.mark.parametrize("doctored", [
    {"updates": (39, 1, 1)}, {"updates": (40, 2, 1)},
    {"updates": (40, 1, 3)},
    {"load": {"r0": [40, 0, 0], "r1": [0, 40, 0], "r2": [13, 0, 27]}},
], ids=["unbatched", "half-second", "two-seconds", "cross-region"])
def test_e7_claim_rejects_a_doctored_result(doctored):
    e7_gns_resolution.assert_shape(_e7_result())
    with pytest.raises(AssertionError):
        e7_gns_resolution.assert_shape(_e7_result(**doctored))


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


def test_e5_claims_need_a_strict_margin():
    def row(strategy, mean, replicas):
        return {"strategy": strategy, "replicas": replicas,
                "latency": SimpleNamespace(mean=mean)}

    tied = {"rows": [row("Adaptive", 0.6, 3), row("NoRepl", 1.0, 1),
                     row("ReplAll", 0.5, 3)]}
    with pytest.raises(AssertionError):
        e5_adaptive.assert_faster_than_no_replication(tied)
    with pytest.raises(AssertionError):
        e5_adaptive.assert_fewer_replicas(tied)
    # The table's check holds each clause.
    slow = {"rows": [row("Adaptive", 0.6, 2), row("NoRepl", 1.0, 1),
                     row("ReplAll", 0.5, 3)]}
    crowded = {"rows": [row("Adaptive", 0.5, 3), row("NoRepl", 1.0, 1),
                        row("ReplAll", 0.5, 3)]}
    for result in (slow, crowded):
        with pytest.raises(AssertionError):
            e5_adaptive.assert_shape(result)


def test_e6_claims_need_a_strict_margin():
    def row(load, records, total, mean):
        return {"root_load_max": load, "root_records_max": records,
                "root_records_total": total,
                "latency": SimpleNamespace(mean=mean)}

    good = [row(10, 8, 10, 1.0), row(5, 4, 10, 1.2)]
    e6_partitioning.assert_shape({"rows": good})
    for tied in ([good[0], row(10, 4, 10, 1.2)],
                 [good[0], row(5, 10, 10, 1.2)],
                 [good[0], row(5, 4, 10, 1.5)]):
        with pytest.raises(AssertionError):
            e6_partitioning.assert_shape({"rows": tied})


def test_e10_claims_hold_each_bound():
    def row(replicate, offered, achieved, mean):
        return {"replicate": replicate, "offered": offered,
                "achieved": achieved, "latency": SimpleNamespace(mean=mean)}

    def result(low_single=None, low_replicated=None, worst_single=None,
               worst_replicated=None):
        return {"capacity_one": 20.0, "rows": [
            low_single or row(False, 10.0, 11.0, 1.0),
            worst_single or row(False, 40.0, 20.0, 8.0),
            low_replicated or row(True, 10.0, 9.0, 1.4),
            worst_replicated or row(True, 40.0, 39.0, 3.0)]}

    # Each bound met with a margin, and the low-load one exactly.
    e10_load_scaling.assert_shape(result())
    for broken in (
            result(worst_single=row(False, 20.0, 20.0, 8.0)),
            result(worst_replicated=row(True, 40.0, 39.0, 4.0)),
            result(worst_replicated=row(True, 40.0, 20.0, 3.0)),
            result(low_single=row(False, 20.0, 15.0, 1.0)),
            result(low_replicated=row(True, 10.0, 9.0, 1.5))):
        with pytest.raises(AssertionError):
            e10_load_scaling.assert_shape(broken)


def _mean(value):
    return SimpleNamespace(mean=value)


def test_the_claims_of_e1_e3_e4_e7_and_the_ablations_at_their_bounds():
    """Each claim clause at the value where it flips: a strict bound
    fails there, an inclusive one holds."""
    def e1(same_site, cross_world):
        return {"rows": [
            {"representative": "cache role (fresh copy)", "read_small": 0.0},
            {"representative": "client role, same site",
             "read_small": same_site},
            {"representative": "client role, cross world",
             "read_small": cross_world}]}

    def e3(setup_gdn):
        return {"rows": [
            {"latency": _mean(1.0), "serving_wan": 10, "setup_wan": 0},
            {"latency": _mean(1.0), "serving_wan": 10, "setup_wan": 5},
            {"latency": _mean(0.5), "serving_wan": 5,
             "setup_wan": setup_gdn}]}

    def e4(plain, one_way, two_way, integrity):
        return {"rows": [dict(zip(("handshake", "large"), row))
                         for row in (plain, one_way, two_way, integrity)]}

    def e7(warm):
        return {"batching": [], "name_count": 1, "warm": _mean(warm),
                "cold": _mean(1.0), "load": {}, "server_regions": [],
                "servers": [], "stable_after_move": True}

    def a2(update, hops):
        return {"rows": [{"update": _mean(1.0), "hops": _mean(2.0)},
                         {"update": _mean(update), "hops": _mean(hops)}]}

    def a3(latency, size):
        return {"rows": [{"latency": _mean(1.0), "bytes": 10},
                         {"latency": _mean(latency), "bytes": size}]}

    holds = [(e1_dso_invocation.assert_shape, e1(0.01, 1.01)),
             (e3_end_to_end.assert_shape, e3(5)),
             (e4_security.assert_shape, e4((1, 1), (2, 1), (2, 2),
                                          (2, 1.5))),
             (e7_gns_resolution.assert_shape, e7(0.1)),
             (ablations.assert_mobility_shape, a2(0.5, 2.0)),
             (ablations.assert_transport_shape, a3(1.6, 11))]
    fails = [(e1_dso_invocation.assert_shape, e1(0.0, 1.0)),
             (e1_dso_invocation.assert_shape, e1(0.01, 1.0)),
             (e4_security.assert_shape, e4((1, 1), (1, 1), (2, 2),
                                          (2, 1.5))),
             (e4_security.assert_shape, e4((1, 1), (2, 1), (1, 1),
                                          (2, 1.5))),
             (e4_security.assert_shape, e4((1, 1), (2, 1), (2, 2),
                                          (2, 2))),
             (e4_security.assert_shape, e4((1, 1), (2, 1), (2, 1),
                                          (2, 0.5))),
             (e7_gns_resolution.assert_shape, e7(0.2)),
             (ablations.assert_consistency_shape,
              {"rows": [{"stale": 0}, {"stale": 0}]}),
             (ablations.assert_mobility_shape, a2(1.0, 1.0)),
             (ablations.assert_mobility_shape, a2(0.5, 2.5)),
             (ablations.assert_transport_shape, a3(1.5, 11)),
             (ablations.assert_transport_shape, a3(1.6, 10))]
    for check, result in holds:
        check(result)
    for check, result in fails:
        with pytest.raises(AssertionError):
            check(result)
