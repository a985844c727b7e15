"""``python3 tools/ab.py``: the parent/change A/B protocol as one command.

Exports two revisions of the repository into fresh directories and
runs ``python3 -m gdnbench --workload W --seed S --trace 0`` in each,
``--pairs`` times per workload, alternating which side runs first.
Then, per workload and end-to-end metric, it prints both sides'
quartiles, the relative change of the medians, how many pairs the
change won, and the metric's verdict against its ``BENCHMARK.json``
bound; and whether the six simulated metrics were bit-identical
between the sides in every pair.

    python3 tools/ab.py --workload secure_mixed --pairs 10 \\
        --claim host_us_per_request --gain 0.12
    python3 tools/ab.py --parent HEAD~1 --change HEAD \\
        --workload long_tail --workload steady_download --pairs 4

``--parent REV`` (default ``HEAD``) is exported with ``git archive``;
without ``--change`` the change is the *index* — what ``git add``
staged — exported with ``git checkout-index``, so stage the change
first.  Neither export touches the working tree or registers a
worktree.  ``gdnbench/`` and ``BENCHMARK.json`` are not modified: the
benchmark is driven from outside, the same way for both sides.

Exit status: 1 if on any workload an end-to-end metric of the change
is worse than the parent's by more than its bound (medians), a larger
share of requests failed, or a run was not correct; 2 if ``--claim``
was given and not met (the change must win at least nine pairs in ten,
its median must be better by at least ``--gain`` and lie further from
the parent's than the parent's interquartile range); else 0.
``--out PATH`` writes every run and the verdicts as one JSON record.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: End-to-end metrics measured in host time; every other one is
#: simulated and repeats bit for bit for a given seed and program.
HOST_METRICS = ("setup_s", "host_us_per_request", "peak_rss_mb")
#: A claim needs the change to win at least this share of the pairs.
CLAIM_WIN_SHARE = 0.9


def _git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT)] + list(args),
                          check=True, **kwargs)


def export(revision: Optional[str], directory: pathlib.Path) -> str:
    """Export ``revision`` (None: the index) into ``directory``; return
    a label naming what was exported."""
    directory.mkdir(parents=True)
    if revision is None:
        _git("checkout-index", "--all", "--prefix=%s/" % directory)
        return "index"
    commit = _git("rev-parse", "--verify", revision + "^{commit}",
                  stdout=subprocess.PIPE, text=True).stdout.strip()
    archive = _git("archive", "--format=tar", commit,
                   stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive,
                   check=True)
    return commit


def run_gdnbench(directory: pathlib.Path, workload: str, seed: int) -> dict:
    """One ``--trace 0`` run of one workload: the contract's result
    object (the last line of its standard output)."""
    done = subprocess.run(
        [sys.executable, "-m", "gdnbench", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=directory, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if not lines:
        raise RuntimeError("gdnbench --workload %s printed no result in %s "
                           "(exit %d)" % (workload, directory,
                                          done.returncode))
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    return result


def quartiles(values: List[float]) -> List[float]:
    """First quartile, median, third quartile."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarise(pairs: List[Dict[str, dict]], catalogue: dict) -> dict:
    """Per end-to-end metric: both sides' quartiles, the relative change
    of the medians (base: parent), the change's wins and the verdict
    against the metric's bound; plus the failure shares, correctness
    and the bit-identity of the simulated metrics."""
    metrics = {}
    for entry in catalogue["end_to_end"]:
        name, lower = entry["name"], entry["better"] == "lower"
        parent = [pair["parent"]["metrics"][name]["value"] for pair in pairs]
        change = [pair["change"]["metrics"][name]["value"] for pair in pairs]
        q_parent, q_change = quartiles(parent), quartiles(change)
        relative = ((q_change[1] - q_parent[1]) / q_parent[1]
                    if q_parent[1] else 0.0)
        worse_by = relative if lower else -relative
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(parent, change))
        metrics[name] = {
            "parent": parent, "change": change,
            "parent_quartiles": q_parent, "change_quartiles": q_change,
            "relative": relative, "wins": wins, "lower_is_better": lower,
            "bound": entry["bound"],
            "verdict": "worse" if worse_by > entry["bound"] else "ok",
        }
    simulated = [entry["name"] for entry in catalogue["end_to_end"]
                 if entry["name"] not in HOST_METRICS]
    differing = sorted({name for pair in pairs for name in simulated
                        if pair["parent"]["metrics"][name]
                        != pair["change"]["metrics"][name]})

    def failed_share(side: str) -> float:
        attempted = sum(pair[side]["attempted"] for pair in pairs)
        return (sum(pair[side]["failed"] for pair in pairs) / attempted
                if attempted else 1.0)

    return {
        "pairs": len(pairs), "metrics": metrics,
        "simulated_identical": not differing,
        "simulated_differing": differing,
        "failed_share": {"parent": failed_share("parent"),
                         "change": failed_share("change")},
        "correct": all(pair[side]["correct"] for pair in pairs
                       for side in ("parent", "change")),
    }


def claim_verdict(summary: dict, metric: str, gain: float) -> dict:
    """Does ``metric`` improve by at least ``gain``, in at least nine
    pairs in ten, by more than the parent's interquartile range?"""
    numbers = summary["metrics"][metric]
    q_parent, q_change = numbers["parent_quartiles"], \
        numbers["change_quartiles"]
    improvement = -numbers["relative"] if numbers["lower_is_better"] \
        else numbers["relative"]
    needed = math.ceil(CLAIM_WIN_SHARE * summary["pairs"])
    separation = abs(q_change[1] - q_parent[1])
    iqr = q_parent[2] - q_parent[0]
    return {
        "metric": metric, "gain": gain, "improvement": improvement,
        "wins": numbers["wins"], "wins_needed": needed,
        "separation": separation, "parent_iqr": iqr,
        "met": (improvement >= gain and numbers["wins"] >= needed
                and separation > iqr),
    }


def _print_summary(workload: str, summary: dict, units: Dict[str, str]
                   ) -> None:
    print("\n%s: %d pairs (parent | change; q1 / median / q3; change of "
          "the medians, base parent)" % (workload, summary["pairs"]))
    print("%-22s %-32s %-32s %9s %5s %6s  %s"
          % ("metric", "parent", "change", "change", "wins", "bound",
             "verdict"))
    for name, numbers in summary["metrics"].items():
        print("%-22s %-32s %-32s %+8.2f%% %2d/%-2d %5.0f%%  %s  %s"
              % (name,
                 " / ".join("%.6g" % v for v in numbers["parent_quartiles"]),
                 " / ".join("%.6g" % v for v in numbers["change_quartiles"]),
                 100 * numbers["relative"], numbers["wins"],
                 summary["pairs"], 100 * numbers["bound"],
                 numbers["verdict"], units[name]))
    if summary["simulated_identical"]:
        print("simulated metrics: bit-identical parent == change in every "
              "pair")
    else:
        print("simulated metrics: DIFFER in %s"
              % ", ".join(summary["simulated_differing"]))
    print("failed share: parent %.4f, change %.4f; all runs correct: %s"
          % (summary["failed_share"]["parent"],
             summary["failed_share"]["change"], summary["correct"]))


def main(argv: Optional[List[str]] = None) -> int:
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        prog="python3 tools/ab.py", description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", required=True,
                        choices=[w["name"] for w in catalogue["workloads"]],
                        help="a workload to run (repeat for several)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--parent", default="HEAD",
                        help="revision of the parent side (default HEAD)")
    parser.add_argument("--change",
                        help="revision of the change side (default: the "
                             "index, i.e. what is staged)")
    parser.add_argument("--claim", metavar="METRIC",
                        help="end-to-end metric the change claims to "
                             "improve on every --workload")
    parser.add_argument("--gain", type=float, default=0.0,
                        help="least relative improvement --claim needs")
    parser.add_argument("--workdir",
                        help="export here (default: a temporary directory, "
                             "removed afterwards)")
    parser.add_argument("--out", help="write the JSON record here")
    args = parser.parse_args(argv)
    names = [entry["name"] for entry in catalogue["end_to_end"]]
    if args.claim is not None and args.claim not in names:
        parser.error("--claim must be one of %s" % ", ".join(names))
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    units = {entry["name"]: entry["unit"] for entry in catalogue["end_to_end"]}

    workdir = pathlib.Path(args.workdir or tempfile.mkdtemp(prefix="ab-"))
    sides = {"parent": workdir / "parent", "change": workdir / "change"}
    for path in sides.values():
        if path.exists():
            shutil.rmtree(path)
    record = {"seed": args.seed, "pairs": args.pairs,
              "parent": export(args.parent, sides["parent"]),
              "change": export(args.change, sides["change"]),
              "workloads": {}}
    print("parent %s, change %s, seed %d, exported under %s"
          % (record["parent"], record["change"], args.seed, workdir))
    shown = args.claim or "host_us_per_request"
    status = 0
    try:
        for workload in args.workload:
            pairs = []
            for index in range(args.pairs):
                order = (("parent", "change") if index % 2 == 0
                         else ("change", "parent"))
                pair = {side: run_gdnbench(sides[side], workload, args.seed)
                        for side in order}
                pair["first"] = order[0]
                pairs.append(pair)
                print("  %s pair %d/%d, %s first: %s parent %.6g, change "
                      "%.6g" % (workload, index + 1, args.pairs, order[0],
                                shown, pair["parent"]["metrics"][shown]
                                ["value"], pair["change"]["metrics"][shown]
                                ["value"]), flush=True)
            summary = summarise(pairs, catalogue)
            _print_summary(workload, summary, units)
            shares = summary["failed_share"]
            if (not summary["correct"]
                    or shares["change"] > shares["parent"]
                    or any(numbers["verdict"] == "worse"
                           for numbers in summary["metrics"].values())):
                status = max(status, 1)
            if args.claim is not None:
                claim = claim_verdict(summary, args.claim, args.gain)
                summary["claim"] = claim
                print("claim %s %s by >= %.1f%%: improved %.2f%%, won "
                      "%d/%d (need %d), medians %.6g apart vs parent IQR "
                      "%.6g -> %s"
                      % (workload, args.claim, 100 * args.gain,
                         100 * claim["improvement"], claim["wins"],
                         args.pairs, claim["wins_needed"],
                         claim["separation"], claim["parent_iqr"],
                         "MET" if claim["met"] else "NOT MET"))
                if not claim["met"] and status == 0:
                    status = 2
            record["workloads"][workload] = {"runs": pairs,
                                             "summary": summary}
    finally:
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(record, handle, indent=1)
                handle.write("\n")
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    print("\nverdict: %s" % {0: "ok", 1: "a bound was exceeded, more "
                                         "requests failed or a run was not "
                                         "correct",
                              2: "the claim was not met"}[status])
    return status


if __name__ == "__main__":
    sys.exit(main())
