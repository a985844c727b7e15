"""``python3 -m gdnbench``: run the benchmark, print every metric, check.

Without ``--workload`` all five workloads run, tracing off, then one
traced drive each and the layer ladder; every metric is printed as
``workload name value unit`` and ``--out`` gets one JSON document.
With ``--workload NAME --trace 0|1`` one workload runs and the last
line of output is the result object the benchmark contract in
``BENCHMARK.json`` describes (``--trace 0``: the end-to-end metrics,
``--trace 1``: the per-layer ones).

Every drive is a child interpreter (see ``drive.py``), one after the
other, so a single busy thread at a time.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

from . import ROOT
from .ladder import BELOW, RUNG_METRICS
from .layers import LAYERS

#: Fewest untraced drives behind an end-to-end number (a traced run
#: needs only the base its overhead and spread are measured against).
MIN_DRIVES = 3
MIN_DRIVES_TRACED = 2
#: Share of ``--seconds`` a traced run spends on its untraced base.
TRACED_BASE_SHARE = 0.4
#: Timed seconds per ladder rung.
LADDER_SECONDS = 0.25
#: ``--smoke`` divides request counts by this.
SMOKE_SCALE = 50


def _child(module: str, *args) -> dict:
    """Run ``python -m module args`` to completion; its JSON record."""
    done = subprocess.run(
        [sys.executable, "-m", module] + [str(arg) for arg in args],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _drives(workload: str, seed: int, scale: int, seconds: float,
            fewest: int, exactly: Optional[int]) -> List[dict]:
    """Untraced drives, one after another, until their timed CPU adds
    up to ``seconds`` (to the nearest drive) — or ``exactly`` many."""
    records: List[dict] = []
    spent = 0.0
    while True:
        records.append(_child("gdnbench.drive", workload, seed, scale, 0))
        spent += records[-1]["drive_raw_s"]
        if exactly is not None:
            if len(records) >= exactly:
                return records
        elif len(records) >= fewest \
                and spent + spent / len(records) / 2 >= seconds:
            return records


@functools.lru_cache(maxsize=None)
def _ladder(seed: int, seconds: float) -> dict:
    return _child("gdnbench.ladder", seed, seconds)


def _nearest_other(values: List[float], reported: float) -> float:
    """How far the nearest *other* drive is from the reported value, as
    a share of it: the resolution ``compare`` holds a bound against."""
    others = sorted(abs(value - reported) for value in values)[1:]
    return others[0] / reported if others and reported else 0.0


def _end_to_end(records: List[dict], complaints: List[str]):
    """The end-to-end metrics of a set of untraced drives, plus each
    metric's resolution.  Host metrics report the median drive: their
    times are calibrated (see ``calibration.py``), which leaves noise
    of both signs."""
    simulated = records[0]["simulated"]
    if any(record["simulated"] != simulated for record in records):
        complaints.append("simulated metrics differ between drives of "
                          "one seed")
    attempted = records[0]["counts"]["attempted"]
    host = {
        "setup_s": [record["setup_s"] for record in records],
        "peak_rss_mb": [record["peak_rss_mb"] for record in records],
        "host_us_per_request": [record["drive_cpu_s"] * 1e6 / attempted
                                for record in records],
    }
    metrics = dict(simulated)
    spread = dict.fromkeys(simulated, 0.0)
    for name, values in host.items():
        metrics[name] = statistics.median(values)
        spread[name] = _nearest_other(values, metrics[name])
    return metrics, spread


def _per_layer(records: List[dict], traced: dict, ladder: dict,
               complaints: List[str]) -> Dict[str, float]:
    """Counts from the untraced drives, busy time from the traced one,
    rungs from the ladder."""
    counts = records[0]["layer"]
    if any(record["layer"] != counts for record in records + [traced]):
        complaints.append("per-layer counts differ between drives of "
                          "one seed")
    cpu = statistics.median(record["drive_cpu_s"] for record in records)
    raw = [record["drive_raw_s"] for record in records]
    layer = {
        "sim.kernel.host_us_per_event":
            cpu * 1e6 / records[0]["counts"]["events"],
        **counts,
        "workloads.host_spread_ratio": (max(raw) - min(raw)) / min(raw),
        "trace.overhead_ratio": traced["drive_cpu_s"] / cpu,
        "trace.samples": traced["trace"]["samples"],
    }
    traced_us_per_request = \
        traced["drive_cpu_s"] * 1e6 / traced["counts"]["attempted"]
    for name in LAYERS:
        for kind, key in (("self", "self"), ("incl", "inclusive")):
            layer["%s.%s_us_per_request" % (name, kind)] = \
                traced["trace"][key][name] * traced_us_per_request
    for rung, numbers in ladder.items():
        for name in RUNG_METRICS:
            layer["%s.%s" % (rung, name)] = numbers[name]
    share = sum(traced["trace"]["self"].values())
    if abs(share - 1.0) > 0.01:
        complaints.append("sampler self shares sum to %r" % share)
    return layer


def run_workload(workload: str, seed: int, scale: int, seconds: float,
                 drives: Optional[int], trace: Optional[int],
                 catalogue: dict) -> dict:
    """One workload: its drives, its metrics in the catalogue's order
    (so a metric the catalogue names and the code forgot is a
    ``KeyError``), its verdict."""
    def catalogued(family: str, metrics: Dict[str, float]):
        return {entry["name"]: metrics[entry["name"]]
                for entry in catalogue[family]}

    only_traced = trace == 1
    records = _drives(
        workload, seed, scale,
        seconds * TRACED_BASE_SHARE if only_traced else seconds,
        MIN_DRIVES_TRACED if only_traced else MIN_DRIVES, drives)
    complaints: List[str] = []
    result: dict = {"drives": records}
    if trace != 1:
        metrics, result["spread"] = _end_to_end(records, complaints)
        result["end_to_end"] = catalogued("end_to_end", metrics)
    if trace != 0:
        traced = _child("gdnbench.drive", workload, seed, scale, 1)
        ladder = _ladder(seed, LADDER_SECONDS / scale)
        result["traced_drive"] = traced
        result["per_layer"] = catalogued(
            "per_layer", _per_layer(records, traced, ladder, complaints))
        records = records + [traced]
    for record in records:
        complaints.extend(record["complaints"])
    result["attempted"] = sum(r["counts"]["attempted"] for r in records)
    result["failed"] = sum(r["counts"]["failed"] for r in records)
    result["errors"] = [error for r in records for error in r["errors"]]
    result["complaints"] = complaints
    result["correct"] = not complaints
    return result


def _print_ladder(ladder: dict) -> None:
    print("\nlayer ladder (us per call; 'adds' is the difference to the "
          "rung it stands on)")
    print("%-28s %10s %10s  %-26s %8s %8s %10s"
          % ("rung", "us", "adds", "on", "events", "timers", "peak B"))
    for rung, numbers in ladder.items():
        below = BELOW[rung]
        adds = (numbers["us_per_op"] - ladder[below]["us_per_op"]
                if below else numbers["us_per_op"])
        print("%-28s %10.2f %+10.2f  %-26s %8.2f %8.2f %10.0f"
              % (rung, numbers["us_per_op"], adds, below or "-",
                 numbers["events_per_op"], numbers["timers_per_op"],
                 numbers["peak_alloc_bytes_per_op"]))


def _header(args) -> dict:
    """Where, when and how the document was produced."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        commit = done.stdout.strip() if done.returncode == 0 else None
    except OSError:
        commit = None
    return {"benchmark": "gdnbench", "claim": None,
            "comparable": not args.smoke and args.drives is None,
            "seed": args.seed, "seconds": args.seconds,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit}


def main(argv: Optional[List[str]] = None) -> int:
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in catalogue["workloads"]]
    units = {entry["name"]: entry["unit"]
             for entry in catalogue["end_to_end"] + catalogue["per_layer"]}

    parser = argparse.ArgumentParser(prog="python3 -m gdnbench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        default=catalogue["run_seconds"],
                        help="timed CPU seconds per run of a workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only, 1: per-layer "
                             "metrics only (default: both)")
    parser.add_argument("--drives", type=int,
                        help="exactly this many untraced drives, "
                             "whatever --seconds says")
    parser.add_argument("--smoke", action="store_true",
                        help="1/%d of the requests; not comparable"
                             % SMOKE_SCALE)
    parser.add_argument("--out", help="write the JSON document here")
    args = parser.parse_args(argv)

    scale = SMOKE_SCALE if args.smoke else 1
    results = {}
    for workload in [args.workload] if args.workload else workloads:
        result = results[workload] = run_workload(
            workload, args.seed, scale, args.seconds / scale, args.drives,
            args.trace, catalogue)
        for family in ("end_to_end", "per_layer"):
            for name, value in result.get(family, {}).items():
                print("%-16s %-48s %16.6f %s"
                      % (workload, name, value, units[name]))
        for complaint in result["complaints"] + result["errors"]:
            print("%s: %s" % (workload, complaint), file=sys.stderr)
    ladder = None
    if args.trace != 0:
        ladder = _ladder(args.seed, LADDER_SECONDS / scale)
        _print_ladder(ladder)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"header": _header(args), "workloads": results,
                       "ladder": ladder}, handle, indent=1)
            handle.write("\n")

    correct = all(result["correct"] for result in results.values())
    if args.workload:
        # The contract's result object, last line of standard output.
        result = results[args.workload]
        metrics = {**result.get("end_to_end", {}),
                   **result.get("per_layer", {})}
        print(json.dumps({
            "correct": correct, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
