"""The paper's tables are goldens: each renders byte for byte as committed.

Every figure/section experiment (E1–E10) and ablation (A1–A3) is run
at its benchmark defaults through its ``run_*`` driver and
``format_*`` renderer, and the text is compared with the committed
``benchmarks/results/<name>.txt`` the figure bench writes.  A change
that moves a paper number fails here until the table is re-recorded in
the same diff (``python -m pytest benchmarks/bench_<figure>.py``
rewrites it) — and the diff then shows which cells moved.
"""

import importlib
import pathlib

import pytest

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" \
    / "results"

#: (results file stem, experiment module, driver, renderer)
TABLES = [
    ("E1_fig1_dso_invocation", "e1_dso_invocation",
     "run_dso_invocation_experiment", "format_result"),
    ("E2_fig2_gls_locality", "e2_gls_locality",
     "run_gls_locality_experiment", "format_result"),
    ("E3_fig3_end_to_end", "e3_end_to_end",
     "run_end_to_end_experiment", "format_result"),
    ("E4_fig4_security_overhead", "e4_security",
     "run_security_overhead_experiment", "format_result"),
    ("E5_sec31_adaptive_replication", "e5_adaptive",
     "run_adaptive_replication_experiment", "format_result"),
    ("E6_sec35_gls_partitioning", "e6_partitioning",
     "run_partitioning_experiment", "format_result"),
    ("E7_sec5_gns_resolution", "e7_gns_resolution",
     "run_gns_resolution_experiment", "format_result"),
    ("E8_sec7_gos_recovery", "e8_recovery",
     "run_recovery_experiment", "format_result"),
    ("E9_sec6_policy_enforcement", "e9_policy",
     "run_policy_experiment", "format_result"),
    ("E10_ext_load_scaling", "e10_load_scaling",
     "run_load_scaling_experiment", "format_result"),
    ("A1_push_vs_pull", "ablations",
     "run_consistency_ablation", "format_consistency"),
    ("A2_gls_mobile_objects", "ablations",
     "run_mobility_ablation", "format_mobility"),
    ("A3_gls_udp_vs_tcp", "ablations",
     "run_transport_ablation", "format_transport"),
]


@pytest.mark.parametrize("name,module,driver,renderer", TABLES,
                         ids=[table[0].split("_")[0] for table in TABLES])
def test_paper_table_matches_committed_golden(name, module, driver,
                                              renderer):
    experiment = importlib.import_module("repro.experiments." + module)
    rendered = getattr(experiment, renderer)(
        getattr(experiment, driver)()) + "\n"
    committed = (RESULTS / ("%s.txt" % name)).read_text()
    assert rendered == committed, (
        "%s no longer renders as committed; re-record "
        "benchmarks/results/%s.txt in the same diff and say which "
        "cells moved and why" % (name, name))
