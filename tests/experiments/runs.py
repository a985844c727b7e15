"""Paper-table runs shared between the test modules that read them.

E5 is the costliest table (~0.6 s a run).  Its golden, its claim at
unused seeds and each clause of its claim read the same run, so it is
run once per seed; every other table runs afresh for each test.
"""

import functools

from repro.experiments import TABLES, PaperTable


def key(table: PaperTable) -> str:
    """The table's short name: ``E3``, ``A1``, ..."""
    return table.stem.split("_")[0]


BY_KEY = {key(table): table for table in TABLES}


def result(table: PaperTable, seed=None):
    """``table``'s result at ``seed``, or at its committed seed."""
    if key(table) == "E5":
        return _shared(table, seed)
    return table.run() if seed is None else table.run(seed=seed)


@functools.lru_cache(maxsize=None)
def _shared(table: PaperTable, seed):
    return table.run() if seed is None else table.run(seed=seed)
