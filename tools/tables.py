"""``python3 tools/tables.py [STEM ...]``: re-record the paper's tables.

Runs every experiment of :data:`repro.experiments.TABLES` at its
defaults (or only those whose stems are named, such as
``E3_fig3_end_to_end``), writes each rendered table to
``benchmarks/results/<stem>.txt``, prints it, and checks the paper's
claim on the result.  ``tests/experiments/test_paper_tables.py``
fails until what this writes is committed.

Exit status: 2 if a name matches no table (nothing is run), 1 if a
claim check failed (its table is still written), else 0.
"""

from __future__ import annotations

import pathlib
import sys
from typing import List

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.experiments import TABLES  # noqa: E402


def main(names: List[str]) -> int:
    unknown = set(names) - {table.stem for table in TABLES}
    if unknown:
        print("no such table: %s (known: %s)"
              % (" ".join(sorted(unknown)),
                 " ".join(table.stem for table in TABLES)), file=sys.stderr)
        return 2
    status = 0
    for table in TABLES:
        if names and table.stem not in names:
            continue
        result = table.run()
        text = table.render(result)
        (RESULTS / ("%s.txt" % table.stem)).write_text(text + "\n")
        print(text + "\n")
        try:
            table.check(result)
        except AssertionError as error:
            status = 1
            print("%s: the paper's claim no longer holds: %r"
                  % (table.stem, error), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
