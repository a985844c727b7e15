"""``python3 -m gdnbench.compare OLD.json NEW.json``: did anything get worse?

Reads two documents written by ``python3 -m gdnbench --out`` and
prints one row per (workload, end-to-end metric): both values, the
ratio with its base, and a verdict from the bounds in
``BENCHMARK.json``:

``ok``
    NEW is no worse than OLD by more than the metric's bound.
``worse``
    it is — the exit code is then 1.
``unresolved``
    in one of the two documents the reported value has no other drive
    within the bound of it (``spread``), so a difference of the size
    of the bound cannot be told from noise.  Not the same as ``ok``.
"""

from __future__ import annotations

import json
import sys
from typing import Iterator, List, Tuple

from . import ROOT

Row = Tuple[str, str, float, float, float, float, str]


def compare(old: dict, new: dict, end_to_end: List[dict]) -> Iterator[Row]:
    """Rows ``(workload, metric, old, new, ratio, spread, verdict)``
    for every workload both documents ran end to end."""
    for workload, before in old["workloads"].items():
        after = new["workloads"].get(workload, {})
        if "end_to_end" not in before or "end_to_end" not in after:
            continue
        for entry in end_to_end:
            name = entry["name"]
            was, now = before["end_to_end"][name], after["end_to_end"][name]
            change = (now - was) / was if was else 0.0
            worse_by = change if entry["better"] == "lower" else -change
            spread = max(before["spread"][name], after["spread"][name])
            if spread > entry["bound"]:
                verdict = "unresolved"
            elif worse_by > entry["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            yield (workload, name, was, now, 1.0 + change, spread, verdict)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
        if not documents[-1]["header"]["comparable"]:
            print("note: %s is a smoke or --drives run, stamped not "
                  "comparable" % path)
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("%-16s %-22s %14s %14s  %-18s %7s %6s  %s"
          % ("workload", "metric", "old", "new", "new/old (base old)",
             "spread", "bound", "verdict"))
    bounds = {entry["name"]: entry["bound"]
              for entry in catalogue["end_to_end"]}
    worse = 0
    for workload, name, was, now, ratio, spread, verdict in compare(
            *documents, catalogue["end_to_end"]):
        worse += verdict == "worse"
        print("%-16s %-22s %14.4f %14.4f  %-18.4f %7.4f %6.2f  %s"
              % (workload, name, was, now, ratio, spread, bounds[name],
                 verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
