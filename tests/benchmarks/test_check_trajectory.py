"""Tests for the CI perf-trajectory gate (benchmarks/check_trajectory.py).

The gate script lives outside the package (benchmarks/ is not
importable), so it is loaded by file path here.
"""

import importlib.util
import json
import pathlib
import time

import pytest

from repro.sim.rpc import UdpRpcClient, UdpRpcServer
from repro.sim.topology import Topology
from repro.sim.world import World

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "check_trajectory", REPO_ROOT / "benchmarks" / "check_trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_records_flags_regressions(gate):
    baseline = {"requests_per_sec": 1000.0, "events_per_sec": 5000.0,
                "peak_heap_size": 3}
    ok_fresh = {"requests_per_sec": 800.0, "events_per_sec": 5500.0,
                "peak_heap_size": 900}  # size metrics are not gated
    rows, regressions = gate.compare_records("kernel_x", baseline, ok_fresh,
                                             threshold=0.30)
    assert len(rows) == 2 and regressions == []

    bad_fresh = {"requests_per_sec": 600.0, "events_per_sec": 5000.0}
    _rows, regressions = gate.compare_records("kernel_x", baseline,
                                              bad_fresh, threshold=0.30)
    assert [r["metric"] for r in regressions] == ["requests_per_sec"]
    assert regressions[0]["change"] == pytest.approx(-0.4)


def test_event_rate_is_gated_only_while_the_request_keeps_its_shape(gate):
    # The committed request-path record before and after six of its
    # twelve events per request were removed: faster per request,
    # "slower" per event.
    baseline = {"requests_per_sec": 13834.0, "events_per_sec": 166078.0,
                "events_per_request": 12.0}
    fewer_events = {"requests_per_sec": 16400.0, "events_per_sec": 98500.0,
                    "events_per_request": 6.0}
    rows, regressions = gate.compare_records("gdn_request_path", baseline,
                                             fewer_events, threshold=0.30)
    assert regressions == []
    by_metric = {row["metric"]: row for row in rows}
    assert by_metric["events_per_sec"]["change"] == pytest.approx(-0.407,
                                                                  abs=1e-3)
    assert by_metric["events_per_sec"]["events_per_request"] \
        == (12.0, 6.0)
    assert "not gated: events/request 12.00 -> 6.00" in gate._format_row(
        by_metric["events_per_sec"], 0.30)
    assert "events_per_request" not in by_metric["requests_per_sec"]

    # ... but a request that got slower is still caught, by its own rate.
    slower = dict(fewer_events, requests_per_sec=9000.0)
    _rows, regressions = gate.compare_records("gdn_request_path", baseline,
                                              slower, threshold=0.30)
    assert [r["metric"] for r in regressions] == ["requests_per_sec"]

    # Same shape (a shorter CI run moves the warm-up share by ~0.1 %),
    # or no events_per_request in the record at all: gated as before.
    same_shape = {"requests_per_sec": 13000.0, "events_per_sec": 98500.0,
                  "events_per_request": 12.015}
    _rows, regressions = gate.compare_records("gdn_request_path", baseline,
                                              same_shape, threshold=0.30)
    assert [r["metric"] for r in regressions] == ["events_per_sec"]
    _rows, regressions = gate.compare_records(
        "flash_crowd", {"events_per_sec": 86815.0},
        {"events_per_sec": 50000.0, "events_per_request": 6.0},
        threshold=0.30)
    assert [r["metric"] for r in regressions] == ["events_per_sec"]


def test_gate_passes_and_fails_end_to_end(gate, tmp_path, monkeypatch):
    monkeypatch.delenv("TRAJECTORY_SKIP", raising=False)
    baseline_dir = tmp_path / "baseline"
    fresh_dir = tmp_path / "fresh"
    baseline_dir.mkdir()
    fresh_dir.mkdir()
    (baseline_dir / "kernel_x.json").write_text(
        json.dumps({"requests_per_sec": 1000.0}))
    (fresh_dir / "kernel_x.json").write_text(
        json.dumps({"requests_per_sec": 750.0}))
    (fresh_dir / "kernel_new.json").write_text(
        json.dumps({"requests_per_sec": 10.0}))  # no baseline: warn only

    args = ["--fresh", str(fresh_dir), "--baseline", str(baseline_dir)]
    assert gate.main(args) == 0  # -25% is inside the 30% budget
    assert gate.main(args + ["--threshold", "0.2"]) == 1

    monkeypatch.setenv("TRAJECTORY_SKIP", "1")
    assert gate.main(args + ["--threshold", "0.2"]) == 0
    monkeypatch.delenv("TRAJECTORY_SKIP")

    assert gate.main(["--fresh", str(tmp_path / "missing")]) == 2


def _echo_record(calls, handler):
    """One mini UDP-RPC echo run; returns the bench-style record."""
    world = World(topology=Topology.balanced(1, 1, 1, 2), seed=9)
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("node", "r0/c0/m0/s1")
    server = UdpRpcServer(b, 5300)
    server.register("echo", handler)
    server.start()
    client = UdpRpcClient(a)

    def caller():
        for index in range(calls):
            yield from client.call(b, 5300, "echo", {"x": index})

    proc = a.spawn(caller())
    started = time.perf_counter()
    world.run_until(proc, limit=1e9)
    wall = time.perf_counter() - started
    return {"requests_per_sec": calls / wall,
            "events_per_sec": world.sim.events_processed / wall}


def test_gate_fails_on_artificially_slowed_kernel(gate, tmp_path,
                                                  monkeypatch):
    """The acceptance demonstration: a kernel made slower (every echo
    burns wall-clock time in the handler) must trip the gate against a
    baseline recorded from the healthy kernel."""
    monkeypatch.delenv("TRAJECTORY_SKIP", raising=False)
    calls = 150
    healthy = _echo_record(calls, lambda ctx, args: args["x"])

    def slowed_handler(ctx, args):
        time.sleep(0.002)  # pretend the hot path got 100x costlier
        return args["x"]

    slowed = _echo_record(calls, slowed_handler)
    assert slowed["requests_per_sec"] < healthy["requests_per_sec"] * 0.5

    baseline_dir = tmp_path / "baseline"
    fresh_dir = tmp_path / "fresh"
    baseline_dir.mkdir()
    fresh_dir.mkdir()
    (baseline_dir / "kernel_udp_rpc_echo.json").write_text(
        json.dumps(healthy))
    (fresh_dir / "kernel_udp_rpc_echo.json").write_text(json.dumps(slowed))

    assert gate.main(["--fresh", str(fresh_dir),
                      "--baseline", str(baseline_dir)]) == 1
    # And the healthy kernel passes against its own baseline.
    (fresh_dir / "kernel_udp_rpc_echo.json").write_text(json.dumps(healthy))
    assert gate.main(["--fresh", str(fresh_dir),
                      "--baseline", str(baseline_dir)]) == 0
