#!/usr/bin/env python3
"""Perf-trajectory gate: fresh kernel benchmarks vs committed baselines.

The committed ``benchmarks/results/kernel_*.json`` records are the
repo's performance trajectory — each PR that claims a speedup (or must
not cause a slowdown) is compared against them.  This script reads a
directory of freshly produced records (run the benchmarks with
``BENCH_RESULTS_DIR`` pointing somewhere disposable) and **fails when
any rate metric regresses by more than the threshold** (default 30%,
generous because CI machines vary; the committed baselines come from
full-scale local runs).

Usage::

    BENCH_RESULTS_DIR=/tmp/fresh BENCH_ECHO_CALLS=500 \
        python -m pytest benchmarks/bench_kernel_throughput.py -q
    python benchmarks/check_trajectory.py --fresh /tmp/fresh

Exit status 0 = within budget, 1 = regression, 2 = usage error.
Override / refresh flow: see benchmarks/README.md (set
``TRAJECTORY_SKIP=1`` to bypass a known-noisy run; refresh baselines
by re-running the benchmarks at full scale without
``BENCH_RESULTS_DIR`` and committing the updated json).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import Dict, List, Optional, Tuple

#: Only rate metrics gate the trajectory; size/leak metrics
#: (peak_heap_size, stale_after_run) are asserted by the benchmarks
#: themselves and depend on the configured request counts.
RATE_METRICS = ("requests_per_sec", "events_per_sec")

#: ``events_per_sec`` compares like with like only while a request is
#: made of the same events.  A change that *removes* events from the
#: request path lowers events/s while raising requests/s (12.0 ->
#: 6.0 events/request at +18 % requests/s reads as -41 % events/s), so
#: the event rate is gated only when baseline and fresh record agree
#: on ``events_per_request`` to within this share (run length moves it
#: by ~0.1 %: the warm-up's part of the count), or carry none.
EVENTS_PER_REQUEST_AGREEMENT = 0.01

DEFAULT_THRESHOLD = 0.30
BASELINE_DIR = pathlib.Path(__file__).parent / "results"


def compare_records(name: str, baseline: Dict, fresh: Dict,
                    threshold: float = DEFAULT_THRESHOLD
                    ) -> Tuple[List[dict], List[dict]]:
    """Compare one benchmark record; return (rows, regressions).

    A row is produced per rate metric present in both records; it is a
    regression when the fresh rate dropped more than ``threshold``
    relative to the baseline.  ``events_per_sec`` is reported but not
    gated (row key ``events_per_request`` = (baseline, fresh)) when
    the two records disagree on ``events_per_request``: the request
    path changed shape, and ``requests_per_sec`` alone says whether it
    got slower.
    """
    rows: List[dict] = []
    regressions: List[dict] = []
    reshaped = _events_per_request_move(baseline, fresh)
    for metric in RATE_METRICS:
        if metric not in baseline or metric not in fresh:
            continue
        base = float(baseline[metric])
        new = float(fresh[metric])
        if base <= 0:
            continue
        change = new / base - 1.0
        row = {"name": name, "metric": metric, "baseline": base,
               "fresh": new, "change": change}
        rows.append(row)
        if metric == "events_per_sec" and reshaped is not None:
            row["events_per_request"] = reshaped
        elif change < -threshold:
            regressions.append(row)
    return rows, regressions


def _events_per_request_move(baseline: Dict, fresh: Dict
                             ) -> Optional[Tuple[float, float]]:
    """(baseline, fresh) ``events_per_request`` if both records carry
    one and they disagree; None if the event rate is comparable."""
    try:
        base = float(baseline["events_per_request"])
        new = float(fresh["events_per_request"])
    except KeyError:
        return None
    if abs(new - base) <= EVENTS_PER_REQUEST_AGREEMENT * base:
        return None
    return base, new


def check_directory(fresh_dir: pathlib.Path,
                    baseline_dir: pathlib.Path = BASELINE_DIR,
                    threshold: float = DEFAULT_THRESHOLD
                    ) -> Tuple[List[dict], List[dict], List[str]]:
    """Compare every ``*.json`` record in ``fresh_dir`` against its
    same-named committed baseline; returns (rows, regressions,
    unmatched names)."""
    rows: List[dict] = []
    regressions: List[dict] = []
    unmatched: List[str] = []
    fresh_files = sorted(fresh_dir.glob("*.json"))
    if not fresh_files:
        raise FileNotFoundError("no fresh *.json records in %s" % fresh_dir)
    for fresh_path in fresh_files:
        baseline_path = baseline_dir / fresh_path.name
        if not baseline_path.exists():
            unmatched.append(fresh_path.name)
            continue
        name = fresh_path.stem
        record_rows, record_regressions = compare_records(
            name, json.loads(baseline_path.read_text()),
            json.loads(fresh_path.read_text()), threshold)
        rows.extend(record_rows)
        regressions.extend(record_regressions)
    return rows, regressions, unmatched


def _format_row(row: dict, threshold: float) -> str:
    if "events_per_request" in row:
        flag = ("not gated: events/request %.2f -> %.2f"
                % row["events_per_request"])
    else:
        flag = "REGRESSION" if row["change"] < -threshold else "ok"
    return ("%-24s %-18s %12.0f -> %12.0f  %+6.1f%%  %s"
            % (row["name"], row["metric"], row["baseline"], row["fresh"],
               row["change"] * 100.0, flag))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail on perf-trajectory regressions")
    parser.add_argument("--fresh", required=True, type=pathlib.Path,
                        help="directory of freshly produced *.json records")
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=BASELINE_DIR,
                        help="committed baseline directory "
                             "(default: benchmarks/results)")
    parser.add_argument("--threshold", type=float,
                        default=float(os.environ.get(
                            "TRAJECTORY_THRESHOLD", DEFAULT_THRESHOLD)),
                        help="allowed fractional rate drop (default 0.30)")
    args = parser.parse_args(argv)

    if os.environ.get("TRAJECTORY_SKIP") == "1":
        print("TRAJECTORY_SKIP=1: perf-trajectory gate skipped")
        return 0
    try:
        rows, regressions, unmatched = check_directory(
            args.fresh, args.baseline, args.threshold)
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    print("perf trajectory vs %s (threshold %.0f%%):"
          % (args.baseline, args.threshold * 100.0))
    for row in rows:
        print("  " + _format_row(row, args.threshold))
    for name in unmatched:
        print("  %-24s (no committed baseline; add one by running the "
              "benchmarks at full scale)" % name)
    if regressions:
        print("\n%d metric(s) regressed beyond the %.0f%% budget."
              % (len(regressions), args.threshold * 100.0))
        print("If this is expected (documented trade-off) or the runner "
              "is known-noisy, re-run with TRAJECTORY_SKIP=1 or refresh "
              "the baselines (see benchmarks/README.md).")
        return 1
    print("trajectory ok: no metric regressed beyond %.0f%%."
          % (args.threshold * 100.0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
