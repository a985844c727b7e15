"""Unit tests for metrics and table rendering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.metrics import Series, percentile
from repro.analysis.tables import (Table, format_bytes, format_rate,
                                   format_seconds)
from repro.analysis.telemetry import MetricsRegistry
from repro.sim.network import TrafficMeter
from repro.sim.topology import Level


def test_percentile_basics():
    data = [1, 2, 3, 4, 5]
    assert percentile(data, 0) == 1
    assert percentile(data, 50) == 3
    assert percentile(data, 100) == 5
    assert percentile(data, 25) == 2.0


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 200)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                max_size=50),
       st.floats(min_value=0, max_value=100))
def test_percentile_within_bounds_property(data, p):
    value = percentile(data, p)
    assert min(data) <= value <= max(data)


def test_series_summary():
    series = Series("latency")
    for value in [0.1, 0.2, 0.3, 0.4]:
        series.add(value)
    assert series.count == 4
    assert series.mean == pytest.approx(0.25)
    assert series.p(100) == 0.4


def test_series_empty_rejected():
    with pytest.raises(ValueError):
        Series("empty").mean


def test_traffic_delta_windows():
    # Traffic between two instants is a registry window over the
    # meter's bound per-level counters.
    meter = TrafficMeter()
    registry = MetricsRegistry()
    meter.bind_metrics(registry)
    meter.record(Level.WORLD, 100)
    window = registry.window("w")
    meter.record(Level.WORLD, 50)
    meter.record(Level.SITE, 10)
    assert meter.wide_area_delta(window) == 50  # not the SITE bytes
    meter.record(Level.WORLD, 7)
    assert meter.wide_area_delta(window.close()) == 57
    meter.record(Level.WORLD, 1000)   # after close: not counted
    assert meter.wide_area_delta(window) == 57
    assert meter.wide_area_delta(registry.window("fresh")) == 0


def test_format_helpers():
    assert format_bytes(512) == "512 B"
    assert format_bytes(2048) == "2.0 KiB"
    assert format_bytes(5 * 1024 * 1024) == "5.0 MiB"
    assert (format_bytes(1023), format_bytes(1024)) == ("1023 B", "1.0 KiB")
    assert (format_rate(99.95), format_rate(100.0)) == ("100.0/s", "100/s")
    assert format_seconds(0.0000005) == "0 µs"
    assert format_seconds(0.002) == "2.0 ms"
    assert format_seconds(1.5) == "1.50 s"
    # Each unit starts at its own boundary.
    assert format_seconds(1e-3) == "1.0 ms"
    assert format_seconds(1.0) == "1.00 s"


def test_table_rendering():
    table = Table(["strategy", "wan"], title="E5")
    table.add_row("NoRepl", "10 MiB")
    table.add_row("Adaptive", "2 MiB")
    text = table.render()
    lines = text.splitlines()
    assert lines[0] == "E5"
    assert "strategy" in lines[1]
    assert lines[2].startswith("--------")
    assert "Adaptive" in text


def test_table_cell_count_checked():
    table = Table(["a", "b"])
    with pytest.raises(ValueError):
        table.add_row("only-one")
