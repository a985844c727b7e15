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

``--traffic`` runs no tests either.  It profiles the program's own
entry points instead, in this process: every table of
:data:`repro.experiments.TABLES` (run, render, check), every example
under ``examples/`` at ``GDN_EXAMPLE_SCALE=small``, every ``gdnbench``
workload driven once at smoke scale (seed 11, untraced), and every rung
of ``gdnbench.ladder.RUNGS`` built and called once (seed 11).  It lists
the functions under ``src/`` none of them reaches: each is reached by
tests alone, or, when the plain census lists it too, by nothing.

    PYTHONPATH=src python3 tools/census.py --traffic [--check]

With ``--check`` every unreached function must be explained, and the
run exits 1 if one is not.  A function is exempt by rule if it is a
dunder method or its body (past a docstring) is one ``raise``.  Any
other must have a line ``path  Qualname  reason`` in :data:`KEEP_FILE`
(fields apart by two or more spaces, the path relative to ``src/``),
whose reason names a role the code has today: its safety role
(teardown, fault handling, input checks) or the code that calls or
reads it.  A reason's kind is its text before the first ``:``; a keep
line whose kind starts with one of :data:`REFUSED_KIND` is refused and
fails the check: ``test oracle`` (a test reads state the way the
programs can), ``ROADMAP item`` (a promise is not a caller; the
function comes back with its first caller) and ``§`` (a paper section
is reproduced where a program does what it describes, so code no
program runs comes back with the program).  A keep line whose
function is gone, or is now reached, is stale and fails the check too.

``--traffic`` also watches the telemetry registry while the programs
run.  It records the ``def`` that registers each instrument and every
instrument name a program reads by name (``MetricsRegistry.get``,
through which ``PhaseWindow.delta`` and ``gdnbench``'s pattern reads
go), and lists each pair of registering def and instrument, keyed like
``DirectoryNode.bind_metrics[lookups]``, no name of which was read.
An instrument exists to be read by programs: a test that wants a
counter reads its attribute.  With ``--check`` an unread pair needs a
keep line ``path  Qualname[instrument]  reason``, and a keep line for
a pair that is read or no longer registered is stale.

``--options`` runs no tests.  It lists every keyword option (a
parameter with a default) of a ``def`` under ``src/`` that no call in
``src/``, ``examples/`` or ``gdnbench/`` (the siblings of ``--src``)
passes, by keyword or by position, and every one that each of those
calls passes, all with the same literal (``always True``): either way
the programs use one value of it.

    PYTHONPATH=src python3 tools/census.py --options [--check]

With ``--check`` every listed option must be exempt or kept, and the
run exits 1 if one is not.  ``port`` and ``seed`` options are exempt by
rule, as are the options of the entry points of
:data:`repro.experiments.TABLES` (table parameters that tests shrink).
Any other needs a line ``path  Qualname(option)  reason`` in
:data:`KEEP_FILE`, not of the refused kind; a keep line whose option is
no longer listed is stale and fails the check too.

``--state`` runs no tests.  It lists every attribute a ``def`` under
``src/`` stores on ``self`` that no code in ``src/``, ``examples/``,
``gdnbench/`` or ``tests/`` loads: a test observes a counter through
its attribute, so its loads count.  A ``self.attribute`` load inside a
class counts only for that class, its bases and its subclasses (by
class name), so one class's read of a common name hides no other
class's write-only twin; a load through any other receiver is matched
by name, as calls are, and so is a string constant (a ``getattr`` by
name) except inside ``__slots__`` or ``__all__``.  It also lists every
name a module under ``src/`` imports and never uses (``__future__``
imports and an ``__init__``'s ``from . import submodule`` are exempt;
another name an ``__init__`` imports counts as used where a program,
example or test imports it from the package).

    PYTHONPATH=src python3 tools/census.py --state [--check]

With ``--check`` a listed attribute needs a keep line
``path  Class.self.attribute  reason``, a keep line for an attribute
that is loaded or gone is stale, and any unused import fails.

Calls are matched to defs by function name only: ``C(...)`` and
``cls(...)`` inside ``C`` reach ``C.__init__``, ``super().__init__(...)``
reaches the base classes' ``__init__``, and every def of one name shares
its calls.  A call with ``*args`` or ``**kwargs`` passes every option,
values unknown, unless it forwards the calling def's own ``**kwargs``:
that passes on the keywords the def's callers pass it.
Calls made through an alias (``TABLES[i].run``, a callback handed to
``register``, ``functools.partial``) are not seen, so an option listed
may still be set that way; check before deleting it.

A deployment spec is read the same way.  The calls the spec loader
(:data:`SPEC_LOADER`, ``GdnDeployment.from_spec``) makes with a spec's
keys do not count; each call of it that is handed a dict literal does
instead: the literal's own keys pass the constructor's options by name,
and the keys of each entry of a section in :data:`SPEC_SECTIONS` pass
that section's method's (``cache_ttl`` as ``cache_policy``).  A part of
a spec that is not written out in the call (a ``**`` splat, a section
built elsewhere) passes nothing the census sees.  A deployment option
in :data:`SPLAT_OPTIONS` (``gls_cache``) is a dict the deployment
splats into one constructor: a dict literal passed as it, by keyword
or as a spec key, passes that constructor's options by key, and the
deployment's own splatted call does not count.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import pathlib
import re
import runpy
import sys
import threading
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


class Function(NamedTuple):
    path: str       # real path of the source file
    first: int      # first line (a decorator's, if any): co_firstlineno
    last: int
    qualname: str
    exempt: bool    # a dunder method, or a body that only raises


def _exempt(node: ast.AST) -> bool:
    """A dunder method, or a body that is one ``raise`` (after an
    optional docstring)."""
    if node.name.startswith("__") and node.name.endswith("__"):
        return True
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return len(body) == 1 and isinstance(body[0], ast.Raise)


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
                                                child.end_lineno, qualname,
                                                _exempt(child))
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
    that started running while ``run()`` ran.  A census run inside
    another (a test of this tool under the tier-1 census) passes every
    event on to the outer hook and hands it back afterwards."""
    seen: Set = set()
    outer = sys.getprofile()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)
        if outer is not None:
            outer(frame, event, arg)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(outer)
        threading.setprofile(outer)
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


#: ``gdnbench`` drives each workload with ``--smoke``'s request divisor;
#: the seed is the benchmark's own.
TRAFFIC_SEED = 11
TRAFFIC_SCALE = 50


def _program_path() -> None:
    """Make the program (``src/``) and ``gdnbench`` importable."""
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def traffic() -> List[Tuple[str, Callable[[], object]]]:
    """``(label, run)`` for every non-test entry point of the program:
    each paper table, each example at small scale, each ``gdnbench``
    workload at smoke scale and each ladder rung.  Nothing runs until a
    ``run`` is called, but the program is imported: call this under the
    profile hook, so what runs at import time counts as reached."""
    _program_path()
    from gdnbench import drive
    from gdnbench.ladder import RUNGS
    from gdnbench.workloads import WORKLOADS
    from repro.experiments import TABLES

    entries: List[Tuple[str, Callable[[], object]]] = []
    for paper in TABLES:
        def run_table(paper=paper) -> None:
            result = paper.run()
            paper.render(result)
            paper.check(result)
        entries.append(("table " + paper.stem, run_table))
    for example in sorted((ROOT / "examples").glob("*.py")):
        entries.append(("example " + example.name,
                        lambda example=example: _run_example(example)))
    for workload in WORKLOADS:
        entries.append(("workload " + workload,
                        lambda workload=workload: drive.run(
                            workload, TRAFFIC_SEED, TRAFFIC_SCALE, False)))
    for rung, build in RUNGS.items():
        entries.append(("rung " + rung,
                        lambda build=build: _run_rung(build)))
    return entries


def _run_rung(build: Callable) -> None:
    """Build one ladder rung and make one call through it."""
    _sim, run = build(TRAFFIC_SEED)
    run(1, None)


def _run_example(path: pathlib.Path) -> None:
    """Run one example as ``__main__`` at small scale, its narrative
    swallowed; a nonzero exit raises."""
    saved = os.environ.get("GDN_EXAMPLE_SCALE")
    os.environ["GDN_EXAMPLE_SCALE"] = "small"
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")
    except SystemExit as done:
        if done.code not in (None, 0):
            raise RuntimeError("%s exited %r" % (path.name, done.code))
    finally:
        if saved is None:
            del os.environ["GDN_EXAMPLE_SCALE"]
        else:
            os.environ["GDN_EXAMPLE_SCALE"] = saved


class Instruments(NamedTuple):
    registered: Dict[Tuple[str, int, str], Set[str]]  # (def, key) -> names
    read: Set[str]


def _instrument_key(frame, name: str) -> str:
    """The instrument ``name`` is one instance of: its first dotted
    component past the prefix its registering def was handed (the
    longest of the def's ``prefix`` or ``base`` locals or its
    ``self.prefix`` that ``name`` starts with), so ``net.bytes.WORLD``
    is ``bytes``."""
    local = frame.f_locals
    prefixes = [local.get("prefix"), local.get("base"),
                getattr(local.get("self"), "prefix", None)]
    cut = max((len(prefix) + 1 for prefix in prefixes
               if isinstance(prefix, str) and name.startswith(prefix + ".")),
              default=0)
    return name[cut:].split(".", 1)[0]


@contextlib.contextmanager
def watched_instruments():
    """Record, while the block runs, every instrument registered with a
    :class:`~repro.analysis.telemetry.MetricsRegistry` (by the ``def``
    that asked for it) and every instrument name read.  Registration
    has one path, ``_register``; a read by name has one too, ``get``,
    which :meth:`PhaseWindow.delta` and ``gdnbench``'s pattern reads go
    through."""
    from repro.analysis import telemetry
    registry = telemetry.MetricsRegistry
    register, get = registry._register, registry.get
    own = os.path.realpath(telemetry.__file__)
    seen = Instruments({}, set())

    def watched_register(self, name, kind, **kwargs):
        frame = sys._getframe(1)
        while os.path.realpath(frame.f_code.co_filename) == own:
            frame = frame.f_back
        code = frame.f_code
        key = (os.path.realpath(code.co_filename), code.co_firstlineno,
               _instrument_key(frame, name))
        seen.registered.setdefault(key, set()).add(name)
        return register(self, name, kind, **kwargs)

    def watched_get(self, name):
        seen.read.add(name)
        return get(self, name)

    registry._register, registry.get = watched_register, watched_get
    try:
        yield seen
    finally:
        registry._register, registry.get = register, get


class Unread(NamedTuple):
    path: str       # real path of the registering def's file
    qualname: str   # "Def.qualname[instrument]"
    names: int      # registered names of the instrument


def unread_instruments(src: pathlib.Path, seen: Instruments
                       ) -> List[Unread]:
    """Each ``(registering def under src, instrument)`` pair none of
    whose names was read, sorted by place."""
    defined = functions(src)
    unread = []
    for (path, first, key), names in seen.registered.items():
        function = defined.get((path, first))
        if function is not None and not names & seen.read:
            unread.append(Unread(path, "%s[%s]" % (function.qualname, key),
                                 len(names)))
    return sorted(unread)


def run_all(entries: List[Tuple[str, Callable[[], object]]]) -> List[str]:
    """Run every entry; the labels of those that raised (reported on
    stderr), so one failure does not hide what the rest reach."""
    failed = []
    for label, run in entries:
        try:
            run()
        except Exception as error:  # noqa: BLE001 - reported
            failed.append(label)
            print("census: %s failed: %r" % (label, error), file=sys.stderr)
    return failed


#: Why each unreached, non-exempt function stays (see ``--check``).
KEEP_FILE = ROOT / "tools" / "census_keep.txt"


def read_keep(path: pathlib.Path) -> Dict[Tuple[str, str], str]:
    """``(path under src/, qualname) -> reason`` for each line of a keep
    file; ``#`` comments and blank lines are skipped."""
    keep: Dict[Tuple[str, str], str] = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = re.split(r"\s{2,}", line, maxsplit=2)
        if len(fields) != 3:
            raise ValueError("%s:%d: want 'path  Qualname  reason', got %r"
                             % (path, number, line))
        keep[(fields[0], fields[1])] = fields[2]
    return keep


#: The reason kinds (a reason's text before its first ``:``) a keep
#: line may not give, by how the kind starts.  What a test reads, it
#: reads the way the programs can, so being a test's oracle is no
#: reason for code to stay; a ROADMAP item that will call a function
#: is a promise, not a caller: the function comes back with its first
#: caller; and a paper section (``§``) is reproduced only where a
#: program does what it describes, so it is no caller either.
REFUSED_KIND = ("test oracle", "roadmap item", "§")


def _refused_kind(reason: str) -> Optional[str]:
    """The :data:`REFUSED_KIND` the reason's kind starts with, if any."""
    kind = reason.split(":", 1)[0].strip().lower()
    return next((refused for refused in REFUSED_KIND
                 if kind.startswith(refused)), None)


def _read_checked_keep() -> Tuple[Dict[Tuple[str, str], str],
                                  List[Tuple[str, str, str]]]:
    """:data:`KEEP_FILE` less the entries whose reason is of a
    :data:`REFUSED_KIND`, and those entries with their kind."""
    keep = read_keep(KEEP_FILE)
    kinds = {key: _refused_kind(reason) for key, reason in keep.items()}
    return ({key: reason for key, reason in keep.items()
             if kinds[key] is None},
            sorted(key + (kind,) for key, kind in kinds.items()
                   if kind is not None))


def check_keep(src: pathlib.Path, uncalled: List[Function],
               unread: List[Unread], keep: Dict[Tuple[str, str], str]
               ) -> Tuple[List[Tuple[str, str]], List[Tuple[str, str]]]:
    """``(path under src/, qualname)`` of the unreached functions that
    are neither exempt nor kept and of the unread instruments that are
    not kept, and of the function and instrument keep entries whose
    function or instrument is gone, reached or read."""
    base = os.path.realpath(src)
    unreached = {(os.path.relpath(function.path, base), function.qualname):
                 function.exempt for function in uncalled}
    unreached.update(((os.path.relpath(instrument.path, base),
                       instrument.qualname), False) for instrument in unread)
    unexplained = [key for key, exempt in unreached.items()
                   if not exempt and key not in keep]
    stale = sorted(key for key in keep
                   if _kind(key) in ("function", "instrument")
                   and key not in unreached)
    return unexplained, stale


def _kind(key: Tuple[str, str]) -> str:
    """What a keep entry names: an ``option`` (``Qualname(option)``),
    an ``instrument`` (``Qualname[instrument]``), an attribute's
    ``state`` (``Class.self.attribute``) or a ``function``."""
    name = key[1]
    if name.endswith(")"):
        return "option"
    if name.endswith("]"):
        return "instrument"
    return "state" if ".self." in name else "function"


class Option(NamedTuple):
    path: str       # real path of the source file
    line: int       # the def's line
    qualname: str   # of the def
    name: str       # of the parameter


#: The trees whose calls count as passing an option, beside ``src``.
CALLER_TREES = ("src", "examples", "gdnbench")

#: Option names exempt from ``--options --check``: deployment settings
#: every test picks its own of.
EXEMPT_OPTIONS = ("port", "seed")

#: The def that builds a deployment from a spec, the call its spec's
#: own keys pass options to, each section's method (None: the section
#: maps names to sites and passes no option), and the spec keys that
#: pass an option of another name.
SPEC_LOADER = "from_spec"
SPEC_TARGET = "GdnDeployment"
SPEC_SECTIONS = {"gos": None, "httpds": "add_httpd", "moderators": None}
SPEC_RENAMES = {"cache_ttl": "cache_policy"}
#: Deployment options whose dict the deployment splats into one
#: constructor: a dict literal passed as one (by keyword, or as a spec
#: key) passes that constructor's options by key, and a call of the
#: constructor with a ``**`` splat does not count.
SPLAT_OPTIONS = {"gls_cache": "GlsLookupCache"}

_ALL = "*"  # a splatted call: every parameter counts as passed
_UNKNOWN = object()  # a value a splat or a forwarding def passes on


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


def _keys(literal: ast.Dict) -> Dict[str, ast.AST]:
    """A dict literal's string keys and their values (a ``**`` splat
    has none)."""
    return {key.value: value for key, value in zip(literal.keys,
                                                   literal.values)
            if isinstance(getattr(key, "value", None), str)}


def spec_calls(spec: ast.Dict) -> List[Tuple[str, dict]]:
    """``(call name, passed)`` of each call the spec literal ``spec``
    makes through :data:`SPEC_LOADER`: one to :data:`SPEC_TARGET` with
    its own keys, one per entry of a :data:`SPEC_SECTIONS` section (a
    dict literal, or a dict comprehension's one) with that entry's."""
    own: dict = {}
    made = [(SPEC_TARGET, own)]
    for key, value in _keys(spec).items():
        if key in SPLAT_OPTIONS and isinstance(value, ast.Dict):
            made.append((SPLAT_OPTIONS[key], _keys(value)))
        if key not in SPEC_SECTIONS:
            own[key] = value
        elif SPEC_SECTIONS[key]:
            if isinstance(value, ast.DictComp):
                entries = [value.value]
            else:
                entries = value.values if isinstance(value, ast.Dict) else []
            made.extend((SPEC_SECTIONS[key],
                         {SPEC_RENAMES.get(name, name): item
                          for name, item in _keys(entry).items()})
                        for entry in entries if isinstance(entry, ast.Dict))
    return made


def passed_arguments(trees: List[pathlib.Path]) -> Dict[str, List[dict]]:
    """Call name -> one dict per call in ``trees``, from each keyword
    (by name) and positional argument (by index) it passes to the value
    it passes (an AST node, or :data:`_UNKNOWN`).  A ``*args`` or
    ``**kwargs`` splat passes :data:`_ALL`, except that a def forwarding
    its own ``**kwargs`` passes on the keywords its callers pass it.
    A spec literal handed to :data:`SPEC_LOADER` makes the calls
    :func:`spec_calls` reads from it, in place of the loader's own."""
    calls: Dict[str, List[dict]] = {}
    forwards: List[Tuple[str, dict]] = []  # (forwarding def, its call)
    forwarded = {SPEC_TARGET, *filter(None, SPEC_SECTIONS.values())}

    def record(name: str, call: ast.Call, caller: str, kwarg: str) -> None:
        if caller == SPEC_LOADER and name in forwarded:
            return
        if name in SPLAT_OPTIONS.values() \
                and any(keyword.arg is None for keyword in call.keywords):
            return
        if name == SPEC_LOADER and call.args \
                and isinstance(call.args[0], ast.Dict):
            for made, passed in spec_calls(call.args[0]):
                calls.setdefault(made, []).append(passed)
        passed: dict = dict(enumerate(call.args))
        for keyword in call.keywords:
            if keyword.arg in SPLAT_OPTIONS \
                    and isinstance(keyword.value, ast.Dict):
                calls.setdefault(SPLAT_OPTIONS[keyword.arg], []).append(
                    _keys(keyword.value))
            if keyword.arg is not None:
                passed[keyword.arg] = keyword.value
            elif kwarg and getattr(keyword.value, "id", None) == kwarg:
                forwards.append((caller, passed))
            else:
                passed[_ALL] = _UNKNOWN
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            passed[_ALL] = _UNKNOWN
        calls.setdefault(name, []).append(passed)

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
        for caller, passed in forwards:
            for call in calls.get(caller, ()):
                for key in list(call):
                    if isinstance(key, str) and key not in passed:
                        passed[key] = _UNKNOWN
                        changed = True
    return calls


def _literal(value) -> object:
    """The source of a passed ``value`` if it is a literal, else
    :data:`_UNKNOWN`."""
    if not isinstance(value, ast.AST):
        return _UNKNOWN
    try:
        ast.literal_eval(value)
    except ValueError:
        return _UNKNOWN
    return ast.unparse(value)


def one_value_options(src: pathlib.Path
                      ) -> Tuple[int, List[Tuple[Option, str]]]:
    """(keyword options under ``src``, and for each one the programs
    set to one value, sorted by place: ``(option, "")`` if no call in
    the :data:`CALLER_TREES` beside it passes it, ``(option, literal)``
    if every such call passes it that same literal)."""
    calls = passed_arguments([src.parent / name for name in CALLER_TREES
                              if (src.parent / name).is_dir()])
    total, listed = 0, []
    for name, entries in keyword_options(src).items():
        total += len(entries)
        for option, position in entries:
            values = set()  # None: a call leaves the default
            for call in calls.get(name, ()):
                value = call.get(_ALL, call.get(option.name,
                                                call.get(position)))
                values.add(None if value is None else _literal(value))
            if values <= {None}:
                listed.append((option, ""))
            elif len(values) == 1 and isinstance(next(iter(values)), str):
                listed.append((option, values.pop()))
    return total, sorted(listed)


#: The trees whose loads count as reading an attribute: the callers,
#: and the tests, which observe a counter through its attribute.
READER_TREES = CALLER_TREES + ("tests",)


class Stored(NamedTuple):
    path: str       # real path of the source file
    line: int       # of the first store
    qualname: str   # "Class.self.attribute"


def stored_attributes(src: pathlib.Path) -> List[Stored]:
    """Every attribute a ``def`` under ``src`` stores on ``self``
    (assigned, annotated or bumped), once per class, at its first
    store."""
    found: Dict[Tuple[str, str], Stored] = {}

    def visit(node: ast.AST, path: str, cls: str, in_def: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, (cls + "." if cls else "") + child.name,
                      False)
                continue
            if (in_def and cls and isinstance(child, ast.Attribute)
                    and isinstance(child.ctx, ast.Store)
                    and getattr(child.value, "id", None) == "self"):
                name = "%s.self.%s" % (cls, child.attr)
                found.setdefault((path, name),
                                 Stored(path, child.lineno, name))
            visit(child, path, cls, in_def or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    for file in sorted(src.rglob("*.py")):
        path = os.path.realpath(file)
        visit(ast.parse(file.read_text(), path), path, "", False)
    return sorted(found.values())


class Loads(NamedTuple):
    names: Set[str]             # loaded through a receiver not ``self``
    own: Dict[str, Set[str]]    # attribute -> classes loading self.attr
    bases: Dict[str, Set[str]]  # class -> its bases, by name


def attribute_loads(trees: List[pathlib.Path]) -> Loads:
    """Every attribute load in ``trees``: a ``self.attribute`` load in
    a class's body is that class's own; any other load, and every string
    constant outside ``__slots__`` and ``__all__`` (a ``getattr`` by
    name), counts by name."""
    found = Loads(set(), {}, {})

    def visit(node: ast.AST, cls: str) -> None:
        for child in ast.iter_child_nodes(node):
            targets = (child.targets if isinstance(child, ast.Assign)
                       else [child.target]
                       if isinstance(child, ast.AnnAssign) else [])
            if any(getattr(target, "id", None) in ("__slots__", "__all__")
                   for target in targets):
                continue
            if isinstance(child, ast.ClassDef):
                found.bases.setdefault(child.name, set()).update(
                    _call_name(base) for base in child.bases)
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) \
                    and isinstance(child.ctx, ast.Load):
                if cls and getattr(child.value, "id", None) == "self":
                    found.own.setdefault(child.attr, set()).add(cls)
                else:
                    found.names.add(child.attr)
            elif isinstance(child, ast.Constant) \
                    and isinstance(child.value, str):
                found.names.add(child.value)
            visit(child, cls)

    for tree in trees:
        for file in sorted(tree.rglob("*.py")):
            visit(ast.parse(file.read_text(), str(file)), "")
    return found


def _kin(cls: str, bases: Dict[str, Set[str]]) -> Set[str]:
    """``cls``, its bases and its subclasses, by name, transitively."""
    subclasses: Dict[str, Set[str]] = {}
    for name, parents in bases.items():
        for parent in parents:
            subclasses.setdefault(parent, set()).add(name)
    kin = {cls}
    for graph in (bases, subclasses):
        todo = [cls]
        while todo:
            for other in graph.get(todo.pop(), ()):
                if other not in kin:
                    kin.add(other)
                    todo.append(other)
    return kin


def write_only_state(src: pathlib.Path) -> Tuple[int, List[Stored]]:
    """(attributes stored under ``src``, the ones no tree of
    :data:`READER_TREES` beside it loads: by name through any receiver
    but ``self``, or as ``self.attribute`` in the storing class, one of
    its bases or one of its subclasses)."""
    stored = stored_attributes(src)
    loads = attribute_loads([src.parent / name for name in READER_TREES
                             if (src.parent / name).is_dir()])
    unloaded = []
    for attribute in stored:
        cls, _self, name = attribute.qualname.rsplit(".", 2)
        if name in loads.names or loads.own.get(name, set()) & _kin(
                cls.rsplit(".", 1)[-1], loads.bases):
            continue
        unloaded.append(attribute)
    return len(stored), unloaded


def imported_from(trees: List[pathlib.Path]) -> Set[Tuple[str, str]]:
    """``(module, name)`` of each absolute ``from module import name``
    in ``trees``."""
    found: Set[Tuple[str, str]] = set()
    for tree in trees:
        for file in sorted(tree.rglob("*.py")):
            for node in ast.walk(ast.parse(file.read_text(), str(file))):
                if isinstance(node, ast.ImportFrom) and node.level == 0:
                    found.update((node.module, alias.name)
                                 for alias in node.names)
    return found


def unused_imports(src: pathlib.Path) -> List[Tuple[str, int, str]]:
    """``(real path, line, name)`` of each name a module under ``src``
    imports and never uses.  A ``__future__`` import is a directive, and
    a package ``__init__``'s ``from . import submodule`` loads it; both
    are exempt.  Any other name an ``__init__`` imports counts as used
    only where a tree of :data:`READER_TREES` imports it from the
    package.  A string that parses as an expression (a quoted
    annotation) uses its names, except in ``__all__``, which exports
    them."""
    found = []
    packages = imported_from([src.parent / name for name in READER_TREES
                              if (src.parent / name).is_dir()])
    for file in sorted(src.rglob("*.py")):
        package = (".".join(file.parent.relative_to(src).parts)
                   if file.name == "__init__.py" else None)
        tree = ast.parse(file.read_text(), str(file))
        tree.body = [statement for statement in tree.body
                     if not (isinstance(statement, ast.Assign) and any(
                         getattr(target, "id", None) == "__all__"
                         for target in statement.targets))]
        imported: Dict[str, int] = {}
        used: Set[str] = set()
        for node in ast.walk(tree):
            if package and isinstance(node, ast.ImportFrom) \
                    and node.level == 1 and node.module is None:
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(name.id for name in ast.walk(quoted)
                            if isinstance(name, ast.Name))
        found.extend((os.path.realpath(file), line, name)
                     for name, line in imported.items()
                     if name not in used and (package, name) not in packages)
    return sorted(found)


def check_state(src: pathlib.Path, unloaded: List[Stored],
                keep: Dict[Tuple[str, str], str]
                ) -> Tuple[List[Tuple[str, str]], List[Tuple[str, str]]]:
    """``(path under src/, "Class.self.attribute")`` of the write-only
    attributes that are not kept, and of the state keep entries that
    name no write-only attribute."""
    base = os.path.realpath(src)
    listed = {(os.path.relpath(attribute.path, base), attribute.qualname)
              for attribute in unloaded}
    return (sorted(listed - set(keep)),
            sorted(key for key in keep
                   if _kind(key) == "state" and key not in listed))


def table_entry_points() -> Set[Tuple[str, str]]:
    """``(real file path, qualname)`` of each ``run`` of
    :data:`repro.experiments.TABLES`."""
    _program_path()
    import inspect

    from repro.experiments import TABLES
    return {(os.path.realpath(inspect.getsourcefile(paper.run)),
             paper.run.__qualname__) for paper in TABLES}


def check_options(src: pathlib.Path, listed: List[Option],
                  keep: Dict[Tuple[str, str], str]
                  ) -> Tuple[List[Tuple[str, str]], List[Tuple[str, str]],
                             int]:
    """``(path under src/, "Qualname(option)")`` of the listed options
    that are neither exempt nor kept, and of the option keep entries
    that name no listed, unexempt option; and how many listed options
    are exempt."""
    base = os.path.realpath(src)
    tables = table_entry_points()
    explained = {(os.path.relpath(option.path, base),
                  "%s(%s)" % (option.qualname, option.name)): option
                 for option in listed
                 if option.name not in EXEMPT_OPTIONS
                 and (option.path, option.qualname) not in tables}
    unexplained = [key for key in explained if key not in keep]
    stale = sorted(key for key in keep
                   if _kind(key) == "option" and key not in explained)
    return unexplained, stale, len(listed) - len(explained)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source tree to census (default: src/)")
    parser.add_argument("--options", action="store_true",
                        help="list keyword options no call passes; "
                             "runs no tests")
    parser.add_argument("--state", action="store_true",
                        help="list attributes stored on self that nothing "
                             "loads; runs no tests")
    parser.add_argument("--traffic", action="store_true",
                        help="list functions no table, example, "
                             "workload or ladder rung reaches; runs no "
                             "tests")
    parser.add_argument("--check", action="store_true",
                        help="with --traffic, --options or --state: exit "
                             "1 unless everything listed is exempt or "
                             "kept, and every keep entry is still listed")
    parser.add_argument("pytest_args", nargs="*",
                        help="arguments for pytest.main (after --)")
    options = parser.parse_args(argv)
    src = pathlib.Path(options.src)
    if options.options:
        total, listed = one_value_options(src)
        base = os.path.realpath(src)
        for option, literal in listed:
            print("%s:%d  %s(%s)%s" % (os.path.relpath(option.path, base),
                                       option.line, option.qualname,
                                       option.name,
                                       "  always " + literal if literal
                                       else ""))
        always = sum(1 for _option, literal in listed if literal)
        print("census: %d of %d keyword options under %s never passed, "
              "%d more always passed one literal"
              % (len(listed) - always, total, src, always))
        if not options.check:
            return 0
        keep, bad = _read_checked_keep()
        unexplained, stale, exempt = check_options(
            src, [option for option, _literal in listed], keep)
        return _report_check(len(listed), exempt, unexplained, stale, bad)
    if options.state:
        total, unloaded = write_only_state(src)
        base = os.path.realpath(src)
        for attribute in unloaded:
            print("%s:%d  %s" % (os.path.relpath(attribute.path, base),
                                 attribute.line, attribute.qualname))
        print("census: %d of %d attributes stored under %s never loaded "
              "in %s" % (len(unloaded), total, src, ", ".join(READER_TREES)))
        unused = unused_imports(src)
        for path, line, name in unused:
            print("%s:%d  import %s" % (os.path.relpath(path, base), line,
                                        name))
        print("census: %d names imported under %s and never used"
              % (len(unused), src))
        if not options.check:
            return 0
        keep, bad = _read_checked_keep()
        unexplained, stale = check_state(src, unloaded, keep)
        return (_report_check(len(unloaded), 0, unexplained, stale, bad)
                or (1 if unused else 0))
    if options.traffic:
        entries: List[Tuple[str, Callable[[], object]]] = []
        failed: List[str] = []
        _program_path()
        with watched_instruments() as seen:
            def run_traffic() -> None:
                entries.extend(traffic())
                failed.extend(run_all(entries))

            total, uncalled, lines = census(src, run_traffic)
        _print_uncalled(src, uncalled)
        print("census: %d of %d functions under %s never reached by the "
              "%d tables, examples, workloads and ladder rungs (%d lines)"
              % (len(uncalled), total, src, len(entries), lines))
        unread = unread_instruments(src, seen)
        base = os.path.realpath(src)
        for instrument in unread:
            print("%s  %s  (%d names)"
                  % (os.path.relpath(instrument.path, base),
                     instrument.qualname, instrument.names))
        registered = set().union(*seen.registered.values())
        print("census: %d of %d (registering def, instrument) pairs under "
              "%s never read by name (%d of %d names registered; %d read)"
              % (len(unread), len(seen.registered), src,
                 sum(instrument.names for instrument in unread),
                 len(registered), len(registered & seen.read)))
        if not options.check:
            return 1 if failed else 0
        keep, bad = _read_checked_keep()
        unexplained, stale = check_keep(src, uncalled, unread, keep)
        exempt = sum(function.exempt for function in uncalled)
        return _report_check(len(uncalled) + len(unread), exempt,
                             unexplained, stale, bad) or (1 if failed else 0)
    import pytest

    outcome = []
    total, uncalled, lines = census(
        src, lambda: outcome.append(
            pytest.main(options.pytest_args or ["-q", "-x"])))
    if outcome and outcome[0] != 0:
        print("census: pytest exited %s; counts are of a partial run"
              % outcome[0], file=sys.stderr)
    _print_uncalled(src, uncalled)
    print("census: %d of %d functions under %s never called (%d lines)"
          % (len(uncalled), total, src, lines))
    return 0 if not outcome or outcome[0] == 0 else 1


def _report_check(listed: int, exempt: int,
                  unexplained: List[Tuple[str, str]],
                  stale: List[Tuple[str, str]],
                  bad: List[Tuple[str, str, str]]) -> int:
    """Print a check's findings over ``listed`` functions or options,
    ``exempt`` of them by rule, with ``bad`` keep entries refused; 1 if
    it failed, else 0."""
    for path, name, kind in bad:
        print("census: refused keep entry (reason kind %s): %s  %s"
              % (kind, path, name))
    for path, name in unexplained:
        print("census: unexplained: %s  %s" % (path, name))
    for path, name in stale:
        print("census: stale keep entry: %s  %s" % (path, name))
    print("census: %d exempt by rule, %d kept with a reason, %d "
          "unexplained; %d stale keep entries"
          % (exempt, listed - exempt - len(unexplained), len(unexplained),
             len(stale)))
    return 1 if unexplained or stale or bad else 0


def _print_uncalled(src: pathlib.Path, uncalled: List[Function]) -> None:
    base = os.path.realpath(src)
    for function in uncalled:
        print("%s:%d  %s  (%d lines)"
              % (os.path.relpath(function.path, base), function.first,
                 function.qualname, function.last - function.first + 1))


if __name__ == "__main__":
    sys.exit(main())
