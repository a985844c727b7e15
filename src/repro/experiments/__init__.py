"""Experiment drivers: one module per reproduced figure/claim.

Shared by the examples, the test suite (shape assertions), and the
benchmark harness (``benchmarks/bench_*.py``, one per driver).
"""

from . import (ablations, e1_dso_invocation, e2_gls_locality,
               e3_end_to_end, e4_security, e5_adaptive, e6_partitioning,
               e7_gns_resolution, e8_recovery, e9_policy, e10_load_scaling)

__all__ = [
    "ablations", "e1_dso_invocation", "e2_gls_locality", "e3_end_to_end",
    "e4_security", "e5_adaptive", "e6_partitioning", "e7_gns_resolution",
    "e8_recovery", "e9_policy", "e10_load_scaling",
]
