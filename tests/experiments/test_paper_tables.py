"""The paper's tables are goldens: each renders byte for byte as committed.

Every figure/section experiment (E1–E10) and ablation (A1–A3) in
:data:`repro.experiments.TABLES` is run at its defaults, rendered, and
compared with the committed ``benchmarks/results/<stem>.txt``; then the
paper's claim is checked on the same result.  A change that moves a
paper number fails here until the table is re-recorded in the same diff
(``python3 tools/tables.py E3_fig3_end_to_end`` rewrites one; with no
argument, all of them), and the diff then shows which cells moved.
"""

import pathlib

import pytest

from repro.experiments import TABLES

from tests.experiments import runs

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" \
    / "results"


@pytest.mark.parametrize("table", TABLES, ids=[runs.key(t) for t in TABLES])
def test_paper_table_matches_committed_golden(table):
    result = runs.result(table)
    rendered = table.render(result) + "\n"
    committed = (RESULTS / ("%s.txt" % table.stem)).read_text()
    assert rendered == committed, (
        "%(stem)s no longer renders as committed; re-record it with "
        "`python3 tools/tables.py %(stem)s` in the same diff and say "
        "which cells moved and why" % {"stem": table.stem})
    table.check(result)
