"""A claim that holds at one seed is one sample: check it at ten more.

Each paper table runs at one committed seed, so its claim check
(``repro.experiments.TABLES[i].check``) only ever sees that seed's
result.  Here the check runs on the table's experiment at seeds
100–109, none of which any table uses.  The four GLS tables come
first: E2 (lookup cost grows with distance), E6 (partitioning the root
spreads its load), A2 (storing a mobile object's address higher up)
and A3 (UDP against TCP).  The other nine tables are still to join.
"""

import pytest

from repro.experiments import TABLES

SEEDS = range(100, 110)
GLS_TABLES = ("E2", "E6", "A2", "A3")

_CASES = [(table, seed) for table in TABLES
          if table.stem.split("_")[0] in GLS_TABLES for seed in SEEDS]


@pytest.mark.parametrize(
    "table, seed", _CASES,
    ids=["%s-%d" % (table.stem.split("_")[0], seed)
         for table, seed in _CASES])
def test_claim_holds_at_an_unused_seed(table, seed):
    table.check(table.run(seed=seed))
