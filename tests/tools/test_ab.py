"""The A/B protocol's arithmetic: quartiles, wins, bounds, claims."""

import json

import pytest

from tools import ab

CATALOGUE = json.loads((ab.ROOT / "BENCHMARK.json").read_text())
SIMULATED = [entry["name"] for entry in CATALOGUE["end_to_end"]
             if entry["name"] not in ab.HOST_METRICS]


def _result(host_us, p99=100.0, failed=0, correct=True):
    metrics = {entry["name"]: 1.0 for entry in CATALOGUE["end_to_end"]}
    metrics.update(host_us_per_request=host_us, sim_latency_p99_ms=p99)
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {name: {"value": value, "unit": "-"}
                        for name, value in metrics.items()}}


def _pairs(parent, change, **change_options):
    return [{"parent": _result(p), "change": _result(c, **change_options)}
            for p, c in zip(parent, change)]


def test_quartiles_of_one_value_are_that_value():
    assert ab.quartiles([3.0]) == [3.0, 3.0, 3.0]
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 3.0, 4.0]


def test_a_clear_gain_meets_its_claim():
    parent = [240.0, 244.0, 243.0, 246.0, 241.0, 245.0, 242.0, 244.0,
              243.0, 247.0]
    change = [value * 0.82 for value in parent]
    summary = ab.summarise(_pairs(parent, change), CATALOGUE)
    host = summary["metrics"]["host_us_per_request"]
    assert host["wins"] == 10 and host["verdict"] == "ok"
    assert host["relative"] == pytest.approx(-0.18)
    assert summary["simulated_identical"] and summary["correct"]
    claim = ab.claim_verdict(summary, "host_us_per_request", 0.12)
    assert claim["met"] and claim["wins_needed"] == 9
    assert not ab.claim_verdict(summary, "host_us_per_request", 0.2)["met"]


def test_a_gain_inside_the_noise_is_not_met():
    parent = [240.0, 250.0, 230.0, 260.0]
    change = [235.0, 255.0, 226.0, 258.0]
    summary = ab.summarise(_pairs(parent, change), CATALOGUE)
    claim = ab.claim_verdict(summary, "host_us_per_request", 0.0)
    assert claim["separation"] < claim["parent_iqr"]
    assert not claim["met"]


def test_a_rise_past_the_bound_is_worse_and_simulated_shifts_are_named():
    summary = ab.summarise(_pairs([100.0] * 4, [125.0] * 4, p99=111.0),
                           CATALOGUE)
    assert summary["metrics"]["host_us_per_request"]["verdict"] == "worse"
    assert summary["metrics"]["sim_latency_p99_ms"]["verdict"] == "worse"
    assert summary["simulated_differing"] == ["sim_latency_p99_ms"]
    assert "sim_latency_p99_ms" in SIMULATED


def test_failures_and_incorrect_runs_are_reported():
    summary = ab.summarise(_pairs([100.0] * 2, [100.0] * 2, failed=3,
                                  correct=False), CATALOGUE)
    assert summary["failed_share"] == {"parent": 0.0, "change": 0.03}
    assert not summary["correct"]
