#!/usr/bin/env python3
"""Per-object replication scenarios vs one-size-fits-all (paper §3.1).

Reproduces the study that motivates the whole GDN design: a synthetic
departmental web site (Zipf popularity, heterogeneous update rates,
regionally skewed readership) is published into the GDN four times —
with no replication, with uniform TTL caching, with a replica of
everything everywhere, and with per-document scenarios chosen by the
ScenarioAdvisor from each document's own usage pattern.

The paper's claim: the adaptive assignment generates the least
wide-area traffic while improving user response time over the
single-scenario baselines.  This reproduction holds the response-time
half; uniform TTL caching ships slightly less wide-area traffic than
the threshold advisor's assignment (benchmarks/README.md, E5).

Run:  python examples/adaptive_replication.py
(set GDN_EXAMPLE_SCALE=small for a reduced CI-sized run)
"""

import os

from repro.experiments.e5_adaptive import (format_result,
                                           run_adaptive_replication_experiment)

SMALL = os.environ.get("GDN_EXAMPLE_SCALE", "").lower() in ("small", "ci")


def main():
    print("== Per-object replication scenarios (Pierre et al. study) ==")
    print("building four GDN deployments and replaying the trace; this")
    print("takes a few seconds...\n")
    result = run_adaptive_replication_experiment(
        seed=9, document_count=12 if SMALL else 30,
        request_count=200 if SMALL else 700)
    print(format_result(result))
    rows = {row["strategy"]: row for row in result["rows"]}
    adaptive = rows["Adaptive"]
    print("\nconclusion: Adaptive used %.1f%% of NoRepl's WAN traffic"
          % (100.0 * adaptive["wan_bytes"] / rows["NoRepl"]["wan_bytes"]))
    print("            with %.0fx faster mean reads than NoRepl"
          % (rows["NoRepl"]["latency"].mean / adaptive["latency"].mean))
    print("            and %d replicas vs ReplAll's %d"
          % (adaptive["replicas"], rows["ReplAll"]["replicas"]))


if __name__ == "__main__":
    main()
