"""A claim that holds at one seed is one sample: check it at more.

Each paper table runs at one committed seed, so its claim check
(``repro.experiments.TABLES[i].check``) only ever sees that seed's
result.  Here the check runs on the table's experiment at seeds none of
the tables uses: all ten of 100–109 for the cheap tables, the first two
for the costly ones (E3, E4, E5, E9 and E10 take ~3 s of CPU a pair).
At all ten seeds every check holds except E3's at seed 109, which is
pinned here as an expected failure.

E5's check is the part of Pierre et al.'s conclusion the reproduction
holds.  Its third clause, that per-object assignment ships the least
wide-area traffic, fails at every seed and is pinned as an expected
failure of its own.
"""

import pytest

from repro.experiments import TABLES, e5_adaptive

from tests.experiments.runs import BY_KEY, key, result

SEEDS = range(100, 110)
#: Cheap enough to check at all ten seeds in tier 1.
EVERY_SEED = ("E1", "E2", "E6", "E7", "E8", "A1", "A2", "A3")

E3_REASON = ("ROADMAP 'check every paper claim across seeds', step 2: "
             "at seed 109 GDN set-up ships more WAN than mirroring")
E5_WAN_REASON = ("ROADMAP '§3.1 by cost': the threshold advisor ships "
                 "more WAN than CacheTTL until it picks by cost")

_CASES = [pytest.param(table, seed, id="%s-%d" % (key(table), seed))
          for table in TABLES
          for seed in (SEEDS if key(table) in EVERY_SEED else SEEDS[:2])]
_CASES.append(pytest.param(
    BY_KEY["E3"], 109, id="E3-109",
    marks=pytest.mark.xfail(strict=True, reason=E3_REASON)))


@pytest.mark.parametrize("table, seed", _CASES)
def test_claim_holds_at_an_unused_seed(table, seed):
    table.check(result(table, seed))


@pytest.mark.parametrize("seed", [None, 100, 101],
                         ids=["committed", "100", "101"])
@pytest.mark.parametrize("clause", [
    pytest.param(e5_adaptive.assert_least_wan, id="least-wan",
                 marks=pytest.mark.xfail(strict=True, reason=E5_WAN_REASON)),
    pytest.param(e5_adaptive.assert_faster_than_no_replication,
                 id="faster-than-norepl"),
    pytest.param(e5_adaptive.assert_fewer_replicas, id="fewer-replicas"),
])
def test_e5_claim_clause(clause, seed):
    clause(result(BY_KEY["E5"], seed))
