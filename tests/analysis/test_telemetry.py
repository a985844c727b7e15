"""Tests for the telemetry registry: instruments, histogram accuracy,
delta algebra, and phase windows."""

import collections
import math
import random

import pytest

from repro.analysis.metrics import percentile
from repro.analysis.telemetry import (Counter, Gauge, Histogram,
                                      MetricsRegistry, TelemetryError)


# -- counters and gauges -----------------------------------------------------

class Source(dict):
    """A producer's plain numbers, read by function-backed instruments."""

    def counter(self, registry, name):
        self.setdefault(name, 0)
        return registry.counter(name, fn=lambda: self[name])

    def gauge(self, registry, name):
        self.setdefault(name, 0)
        return registry.gauge(name, fn=lambda: self[name])

    def bump(self, name, times):
        self[name] += times


def record_all(hist, values):
    for value in values:
        hist.record(value)


def test_counter_and_gauge_basics():
    registry = MetricsRegistry()
    source = Source()
    counter = source.counter(registry, "c")
    source.bump("c", 5)
    assert counter.value == 5
    gauge = source.gauge(registry, "g")
    source["g"] = 7
    assert gauge.value == 7
    assert registry.get("c") is counter
    assert "c" in registry and "missing" not in registry


def test_function_backed_instruments_read_the_source():
    state = {"events": 0}
    registry = MetricsRegistry()
    counter = registry.counter("kernel.events", fn=lambda: state["events"])
    gauge = registry.gauge("kernel.depth", fn=lambda: state["events"] * 2)
    state["events"] = 21
    assert counter.value == 21
    assert gauge.value == 42


def test_registry_rejects_kind_and_binding_conflicts():
    registry = MetricsRegistry()
    registry.counter("x", fn=lambda: 0)
    with pytest.raises(TelemetryError):
        registry.gauge("x", fn=lambda: 0)
    with pytest.raises(TelemetryError):
        registry.counter("x", fn=lambda: 1)  # silent re-bind refused
    with pytest.raises(TelemetryError):
        registry.get("nope")


def test_unique_prefix_hands_out_distinct_scopes():
    registry = MetricsRegistry()
    assert registry.unique_prefix("load") == "load"
    assert registry.unique_prefix("load") == "load#2"
    assert registry.unique_prefix("load") == "load#3"
    assert registry.unique_prefix("other") == "other"


# -- histogram ---------------------------------------------------------------

def test_histogram_quantiles_match_sorted_percentiles_within_5pct():
    """Acceptance: bounded-error quantiles vs exact sorted-sample
    percentiles on 10^4 samples (heavy-tailed, like latencies)."""
    rng = random.Random(1234)
    samples = [rng.lognormvariate(0.0, 1.5) for _ in range(10_000)]
    hist = Histogram()
    record_all(hist, samples)
    assert hist.count == len(samples)
    assert hist.mean == pytest.approx(sum(samples) / len(samples))
    for q in (1, 10, 25, 50, 75, 90, 95, 99, 99.9):
        exact = percentile(samples, q)
        approx = hist.p(q)
        assert abs(approx - exact) <= 0.05 * exact, \
            "p%s: %g vs exact %g" % (q, approx, exact)
    assert hist.p(0) == pytest.approx(min(samples))
    assert hist.p(100) == pytest.approx(max(samples))


def test_histogram_memory_is_bounded_by_buckets_not_samples():
    hist = Histogram(max_error=0.01)
    rng = random.Random(7)
    for _ in range(50_000):
        hist.record(rng.uniform(1e-4, 10.0))
    # ~5 decades of range at 1% accuracy: hundreds of buckets, not 50k.
    assert len(hist._buckets) < 1200
    assert hist.count == 50_000


def test_histogram_empty_is_all_zeros_not_errors():
    hist = Histogram()
    assert hist.count == 0
    assert hist.mean == 0.0
    assert hist.p(95) == 0.0
    assert hist.p(50) == 0.0 and hist.maximum == 0.0
    with pytest.raises(ValueError):
        hist.p(101)


def test_histogram_zero_and_negative_values():
    hist = Histogram()
    record_all(hist, [0.0, 0.0, 0.0, 5.0])
    assert hist.count == 4
    assert hist.p(50) == 0.0
    assert hist.p(100) == pytest.approx(5.0)
    assert hist.minimum == 0.0


def test_histogram_state_is_a_determinism_fingerprint():
    values = [0.1, 0.2, 0.30000001, 4.0]
    a = Histogram()
    record_all(a, values)
    b = Histogram()
    record_all(b, values)
    assert a.state() == b.state()
    b.record(0.2)
    assert a.state() != b.state()


# -- phase windows -----------------------------------------------------------

def test_window_deltas_for_each_instrument_kind():
    registry = MetricsRegistry()
    source = Source()
    source.counter(registry, "c")
    source.gauge(registry, "g")
    hist = registry.histogram("h")
    source.bump("c", 10)
    source["g"] = 1
    hist.record(1.0)

    window = registry.window("during", now=2.0)
    source.bump("c", 5)
    source["g"] = 9
    hist.record(3.0)
    hist.record(4.0)
    window.close(now=6.0)

    assert window.duration == pytest.approx(4.0)
    assert window.delta("c") == 5          # counters: end - start
    assert registry.get("g").value == 9    # gauges: read, not windowed
    with pytest.raises(TelemetryError):
        window.delta("g")
    inside = window.delta("h")             # histograms: recorded inside
    assert inside.count == 2
    assert inside.sum == pytest.approx(7.0)
    assert inside.p(100) == pytest.approx(4.0, rel=0.02)
    # The pre-window sample is excluded.
    assert inside.p(0) >= 2.0


def test_window_handles_instruments_created_mid_window():
    registry = MetricsRegistry()
    window = registry.window("w")
    source = Source()
    source.counter(registry, "late")
    source.bump("late", 3)
    window.close()
    assert window.delta("late") == 3


def test_phase_chain_tiles_the_run_and_sums_to_totals():
    registry = MetricsRegistry()
    source = Source()
    counter = source.counter(registry, "reqs")
    hist = registry.histogram("lat")

    registry.phase("warmup", now=0.0)
    source.bump("reqs", 3)
    record_all(hist, [1.0, 2.0])
    registry.phase("fault", now=10.0)
    source.bump("reqs", 7)
    record_all(hist, [5.0, 6.0, 7.0])
    registry.phase("recovery", now=20.0)
    source.bump("reqs", 2)
    hist.record(1.5)
    registry.end_phase(now=30.0)

    assert [w.label for w in registry.phases] \
        == ["warmup", "fault", "recovery"]
    assert registry.current_phase is None
    counts = [w.delta("reqs") for w in registry.phases]
    assert counts == [3, 7, 2]
    assert sum(counts) == counter.value
    latencies = [w.delta("lat") for w in registry.phases]
    assert [d.count for d in latencies] == [2, 3, 1]
    assert sum(d.count for d in latencies) == hist.count
    assert sum(d.sum for d in latencies) == pytest.approx(hist.sum)
    assert [w.duration for w in registry.phases] == [10.0, 10.0, 10.0]
    # The phase histograms' buckets add up to the run histogram's.
    buckets = collections.Counter()
    for inside in latencies:
        buckets.update(inside._buckets)
    assert buckets == hist._buckets


def test_an_open_window_has_no_duration_yet():
    registry = MetricsRegistry()
    window = registry.window("w", now=1.0)
    assert window.duration is None
    assert window.close(now=3.0).duration == 2.0


@pytest.mark.parametrize("max_error", [0.0, 1.0])
def test_a_histogram_error_bound_must_lie_strictly_between_0_and_1(
        max_error):
    with pytest.raises(TelemetryError, match="max_error"):
        Histogram(max_error=max_error)


def test_a_quantile_the_zero_bucket_reaches_is_zero():
    hist = Histogram()
    hist.record(0.0)
    hist.record(5.0)
    assert hist.p(50) == 0.0


def test_a_window_delta_keeps_its_zero_samples():
    registry = MetricsRegistry()
    hist = registry.histogram("lat")
    hist.record(3.0)
    window = registry.window("w", now=0.0)
    hist.record(0.0)
    hist.record(5.0)
    delta = window.close(now=1.0).delta("lat")
    assert (delta.count, delta.minimum, delta.p(50)) == (2, 0.0, 0.0)


def test_an_untimed_window_summarises_with_no_duration():
    from repro.workloads.loadgen import LoadStats

    registry = MetricsRegistry()
    stats = LoadStats(registry=registry)
    window = registry.window("w")
    stats.note_issued()
    stats.note_ok(0.5)
    summary = stats.phase_summary(window.close())
    assert (summary["duration"], summary["ok"], summary["throughput"]) \
        == (0.0, 1, 0.0)
