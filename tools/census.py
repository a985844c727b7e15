"""``python3 tools/census.py``: which functions under ``src/`` do the tests never call?

Runs the test suite once in this process with a profile hook
(:func:`sys.setprofile`) that records the code object of every Python
call, walks the source tree with :mod:`ast` for every ``def``, and
prints the functions whose code never ran — with their line counts and
a one-line total.  No coverage package is needed.

    PYTHONPATH=src python3 tools/census.py              # tier 1, src/
    PYTHONPATH=src python3 tools/census.py --src src -- tests/gdn -q

Arguments after ``--`` go to ``pytest.main`` (default: ``-q -x``).  A
function counts as called if its body started running at least once,
generators and nested functions included; code that only runs in a
subprocess the tests start is not seen.  The listing is a to-do list,
not a verdict: each entry gets a test, or is deleted if nothing
references it.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import sys
import threading
from typing import Callable, Dict, List, NamedTuple, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


class Function(NamedTuple):
    path: str       # real path of the source file
    first: int      # first line (a decorator's, if any): co_firstlineno
    last: int
    qualname: str


def functions(src: pathlib.Path) -> Dict[Tuple[str, int], Function]:
    """Every ``def`` under ``src``, keyed as its code object will be:
    ``(real file path, co_firstlineno)``."""
    found: Dict[Tuple[str, int], Function] = {}

    def visit(node: ast.AST, path: str, scope: List[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [decorator.lineno for
                                              decorator in
                                              child.decorator_list])
                qualname = ".".join(scope + [child.name])
                found[(path, first)] = Function(path, first,
                                                child.end_lineno, qualname)
                visit(child, path, scope + [child.name])
            elif isinstance(child, ast.ClassDef):
                visit(child, path, scope + [child.name])
            else:
                visit(child, path, scope)

    for file in sorted(src.rglob("*.py")):
        path = os.path.realpath(file)
        visit(ast.parse(file.read_text(), path), path, [])
    return found


def called_code(run: Callable[[], object]) -> Set[Tuple[str, int]]:
    """``(real file path, co_firstlineno)`` of every Python function
    that started running while ``run()`` ran."""
    seen: Set = set()

    def hook(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    real: Dict[str, str] = {}
    keys = set()
    for code in seen:
        path = real.get(code.co_filename)
        if path is None:
            path = real[code.co_filename] = os.path.realpath(
                code.co_filename)
        keys.add((path, code.co_firstlineno))
    return keys


def census(src: pathlib.Path, run: Callable[[], object]
           ) -> Tuple[int, List[Function], int]:
    """(functions under ``src``, the ones ``run`` never called, the
    distinct source lines those span)."""
    defined = functions(src)
    called = called_code(run)
    uncalled = sorted(function for key, function in defined.items()
                      if key not in called)
    lines = {(function.path, line) for function in uncalled
             for line in range(function.first, function.last + 1)}
    return len(defined), uncalled, len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source tree to census (default: src/)")
    parser.add_argument("pytest_args", nargs="*",
                        help="arguments for pytest.main (after --)")
    options = parser.parse_args(argv)
    import pytest

    src = pathlib.Path(options.src)
    outcome = []
    total, uncalled, lines = census(
        src, lambda: outcome.append(
            pytest.main(options.pytest_args or ["-q", "-x"])))
    if outcome and outcome[0] != 0:
        print("census: pytest exited %s; counts are of a partial run"
              % outcome[0], file=sys.stderr)
    base = os.path.realpath(src)
    for function in uncalled:
        print("%s:%d  %s  (%d lines)"
              % (os.path.relpath(function.path, base), function.first,
                 function.qualname, function.last - function.first + 1))
    print("census: %d of %d functions under %s never called (%d lines)"
          % (len(uncalled), total, src, lines))
    return 0 if not outcome or outcome[0] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
