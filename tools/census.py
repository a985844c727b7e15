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

``--options`` runs no tests.  It lists every keyword option (a
parameter with a default) of a ``def`` under ``src/`` that no call in
``src/``, ``examples/`` or ``gdnbench/`` (the siblings of ``--src``)
passes, by keyword or by position:

    PYTHONPATH=src python3 tools/census.py --options

Calls are matched to defs by function name only: ``C(...)`` and
``cls(...)`` inside ``C`` reach ``C.__init__``, ``super().__init__(...)``
reaches the base classes' ``__init__``, and every def of one name shares
its calls.  A call with ``*args`` or ``**kwargs`` passes every option,
unless it forwards the calling def's own ``**kwargs``: that passes on
the keywords the def's callers pass it.
Calls made through an alias (``TABLES[i].run``, a callback handed to
``register``, ``functools.partial``) are not seen, so an option listed
may still be set that way; check before deleting it.
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


class Option(NamedTuple):
    path: str       # real path of the source file
    line: int       # the def's line
    qualname: str   # of the def
    name: str       # of the parameter


#: The trees whose calls count as passing an option, beside ``src``.
CALLER_TREES = ("src", "examples", "gdnbench")

_ALL = "*"  # a splatted call: every parameter counts as passed


def _call_name(func: ast.AST) -> str:
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else ""


def keyword_options(src: pathlib.Path) -> Dict[str, List[tuple]]:
    """Call name -> ``(Option, position)`` of every defaulted parameter
    of the defs of that name under ``src``; ``position`` is its index
    among the arguments a call passes (``self``/``cls`` dropped), None
    for a keyword-only one.  ``C.__init__`` is listed under ``C``."""
    found: Dict[str, List[tuple]] = {}

    def visit(node: ast.AST, path: str, scope: List[str],
              in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = ".".join(scope + [child.name])
                arguments = child.args
                positional = arguments.posonlyargs + arguments.args
                static = any(getattr(decorator, "id", None) == "staticmethod"
                             for decorator in child.decorator_list)
                if in_class and not static:
                    positional = positional[1:]
                name = child.name
                if in_class and name == "__init__":
                    name = scope[-1]
                entries = found.setdefault(name, [])
                for index, arg in enumerate(positional):
                    if index >= len(positional) - len(arguments.defaults):
                        entries.append((Option(path, child.lineno, qualname,
                                               arg.arg), index))
                for arg, default in zip(arguments.kwonlyargs,
                                        arguments.kw_defaults):
                    if default is not None:
                        entries.append((Option(path, child.lineno, qualname,
                                               arg.arg), None))
                visit(child, path, scope + [child.name], False)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, scope + [child.name], True)
            else:
                visit(child, path, scope, in_class)

    for file in sorted(src.rglob("*.py")):
        path = os.path.realpath(file)
        visit(ast.parse(file.read_text(), path), path, [], False)
    return found


def passed_arguments(trees: List[pathlib.Path]
                     ) -> Dict[str, Tuple[Set, int]]:
    """Call name -> (keywords passed, most positional arguments passed)
    over every call in ``trees``.  A ``*args`` or ``**kwargs`` splat
    passes :data:`_ALL`, except that a def forwarding its own
    ``**kwargs`` passes on the keywords its callers pass it."""
    passed: Dict[str, Tuple[Set, int]] = {}
    forwards: Set[Tuple[str, str]] = set()  # (forwarding def, callee)

    def record(name: str, call: ast.Call, caller: str, kwarg: str) -> None:
        keywords, most = passed.get(name, (set(), 0))
        for keyword in call.keywords:
            if keyword.arg is not None:
                keywords.add(keyword.arg)
            elif kwarg and getattr(keyword.value, "id", None) == kwarg:
                forwards.add((caller, name))
            else:
                keywords.add(_ALL)
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            keywords.add(_ALL)
        passed[name] = (keywords, max(most, len(call.args)))

    def visit(node: ast.AST, cls: str, bases: List[str], caller: str,
              kwarg: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name,
                      [base.id for base in child.bases
                       if isinstance(base, ast.Name)], "", "")
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = cls if child.name == "__init__" and cls else child.name
                star = child.args.kwarg
                visit(child, cls, bases, name, star.arg if star else "")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Attribute)
                        and func.attr == "__init__"
                        and isinstance(func.value, ast.Call)
                        and getattr(func.value.func, "id", "") == "super"):
                    for base in bases:
                        record(base, child, caller, kwarg)
                elif isinstance(func, ast.Name) and func.id == "cls" and cls:
                    record(cls, child, caller, kwarg)
                else:
                    record(_call_name(func), child, caller, kwarg)
            visit(child, cls, bases, caller, kwarg)

    for tree in trees:
        for file in sorted(tree.rglob("*.py")):
            visit(ast.parse(file.read_text(), str(file)), "", [], "", "")
    changed = True
    while changed:
        changed = False
        for caller, callee in forwards:
            carried = passed.get(caller, (set(), 0))[0]
            keywords = passed.setdefault(callee, (set(), 0))[0]
            if not carried <= keywords:
                keywords.update(carried)
                changed = True
    return passed


def unused_options(src: pathlib.Path) -> Tuple[int, List[Option]]:
    """(keyword options under ``src``, the ones no call in the
    :data:`CALLER_TREES` beside it passes, sorted by place)."""
    passed = passed_arguments([src.parent / name for name in CALLER_TREES
                               if (src.parent / name).is_dir()])
    total, unused = 0, []
    for name, entries in keyword_options(src).items():
        keywords, most = passed.get(name, (set(), 0))
        total += len(entries)
        unused.extend(option for option, position in entries
                      if _ALL not in keywords and option.name not in keywords
                      and (position is None or position >= most))
    return total, sorted(unused)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source tree to census (default: src/)")
    parser.add_argument("--options", action="store_true",
                        help="list keyword options no call passes; "
                             "runs no tests")
    parser.add_argument("pytest_args", nargs="*",
                        help="arguments for pytest.main (after --)")
    options = parser.parse_args(argv)
    src = pathlib.Path(options.src)
    if options.options:
        total, unused = unused_options(src)
        base = os.path.realpath(src)
        for option in unused:
            print("%s:%d  %s(%s)" % (os.path.relpath(option.path, base),
                                     option.line, option.qualname,
                                     option.name))
        print("census: %d of %d keyword options under %s never passed"
              % (len(unused), total, src))
        return 0
    import pytest

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
