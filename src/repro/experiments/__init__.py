"""Experiment drivers: one module per reproduced figure/claim.

Each module runs its experiment (``run_*``), renders the paper's table
(``format_*``) and checks the paper's claim on the result
(``assert_*shape``).  :data:`TABLES` lists the thirteen committed
tables, ``benchmarks/results/<stem>.txt``: the test suite renders each
and compares it with the committed text, and ``tools/tables.py``
re-records them.
"""

from typing import Callable, Dict, NamedTuple

from . import (ablations, e1_dso_invocation, e2_gls_locality,
               e3_end_to_end, e4_security, e5_adaptive, e6_partitioning,
               e7_gns_resolution, e8_recovery, e9_policy, e10_load_scaling)

__all__ = [
    "ablations", "e1_dso_invocation", "e2_gls_locality", "e3_end_to_end",
    "e4_security", "e5_adaptive", "e6_partitioning", "e7_gns_resolution",
    "e8_recovery", "e9_policy", "e10_load_scaling", "PaperTable", "TABLES",
]


class PaperTable(NamedTuple):
    """One committed table: how to run, render and check it."""

    stem: str
    run: Callable[[], Dict]
    render: Callable[[Dict], str]
    check: Callable[[Dict], None]


def _module_table(stem: str, module, run: Callable) -> PaperTable:
    return PaperTable(stem, run, module.format_result, module.assert_shape)


TABLES = [
    _module_table("E1_fig1_dso_invocation", e1_dso_invocation,
                  e1_dso_invocation.run_dso_invocation_experiment),
    _module_table("E2_fig2_gls_locality", e2_gls_locality,
                  e2_gls_locality.run_gls_locality_experiment),
    _module_table("E3_fig3_end_to_end", e3_end_to_end,
                  e3_end_to_end.run_end_to_end_experiment),
    _module_table("E4_fig4_security_overhead", e4_security,
                  e4_security.run_security_overhead_experiment),
    _module_table("E5_sec31_adaptive_replication", e5_adaptive,
                  e5_adaptive.run_adaptive_replication_experiment),
    _module_table("E6_sec35_gls_partitioning", e6_partitioning,
                  e6_partitioning.run_partitioning_experiment),
    _module_table("E7_sec5_gns_resolution", e7_gns_resolution,
                  e7_gns_resolution.run_gns_resolution_experiment),
    _module_table("E8_sec7_gos_recovery", e8_recovery,
                  e8_recovery.run_recovery_experiment),
    _module_table("E9_sec6_policy_enforcement", e9_policy,
                  e9_policy.run_policy_experiment),
    _module_table("E10_ext_load_scaling", e10_load_scaling,
                  e10_load_scaling.run_load_scaling_experiment),
    PaperTable("A1_push_vs_pull", ablations.run_consistency_ablation,
               ablations.format_consistency,
               ablations.assert_consistency_shape),
    PaperTable("A2_gls_mobile_objects", ablations.run_mobility_ablation,
               ablations.format_mobility, ablations.assert_mobility_shape),
    PaperTable("A3_gls_udp_vs_tcp", ablations.run_transport_ablation,
               ablations.format_transport, ablations.assert_transport_shape),
]
