"""gdnbench — the repo's benchmark: five workloads, end to end and per layer.

``python3 -m gdnbench`` drives every workload of the catalogue in
``BENCHMARK.json`` against the simulated Globe Distribution Network,
prints each metric as ``workload name value unit`` and checks that the
outputs are correct.  Nothing under ``src/`` knows about this package:
every layer is measured from outside, through public APIs and counters.
See ``gdnbench/README.md``.
"""

import pathlib
import sys

#: The checkout root: ``BENCHMARK.json`` sits here, the program under
#: ``src/``.
ROOT = pathlib.Path(__file__).resolve().parent.parent

# The benchmark command names no path outside this package, so the
# package itself puts the program on the import path.  Outside a
# checkout ``src/`` does not exist and importing ``repro`` fails,
# which is the non-zero exit the benchmark contract asks for there.
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
