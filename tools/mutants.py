"""``python3 tools/mutants.py``: which statements would the tests let break?

Makes one small change (a *mutant*) at a time to the files of
:data:`SCOPE`, runs the tests that reach the changed function, and
counts the mutant *killed* if they fail and *survived* if they pass.
A survivor is code whose change no test notices: it gets a killing
test, an argued keep line, or is deleted because nothing needs it.
Standard library only, besides the pytest the suite runs on, which
only the paths that run tests import (``--check`` needs none).

    PYTHONPATH=src python3 tools/mutants.py            # the full sweep
    PYTHONPATH=src python3 tools/mutants.py --check    # keep lines only

Operators (:data:`OPERATORS`), each applied at one place at a time
inside a ``def``:

- ``lt->le``, ``le->lt``, ``gt->ge``, ``ge->gt``, ``eq->ne``,
  ``ne->eq``: one operator of a comparison;
- ``+1->+0``: the ``1`` of an ``x + 1``;
- ``and->or``, ``or->and``: a boolean operator;
- ``return->None``: a ``return X`` of a ``_handle_*`` method (an RPC
  handler's reply);
- ``delete``: one statement replaced by ``pass``: a call statement, a
  store to an attribute or subscript, an augmented assignment, an
  ``if`` with its branches, or a ``del``.

Test selection.  One profiled pass of the test suite maps each function
under ``src/`` to the tests that reach it, with
:func:`census.called_code`'s profile hook keyed per test.  A mutant
runs only the tests that reach its function (the whole suite if none
does), fastest first, with ``-x``.  Before the first mutant the whole suite runs once in that
order, unmutated, and must pass: a test that fails only after some
other test would kill every mutant it is selected for.  Tests that
outlast ``60 s + 3 x`` their profiled time, or a test that outlasts
``30 s + 3 x`` the slowest one's (each at most ``--timeout``, and
neither counting the interpreter's start or the collection), are
*hung* and count as killed.  A mutant whose tests cannot even be
collected is killed too (*error*).  The hook cannot see what a test
runs in a child interpreter; the report names each test that started
one.  While the map is built, each ``functools`` cache defined under
``tests/`` is emptied before every test, so a run the suite shares
between tests is credited to each test that reads it; and a function
that runs while a module under ``src/`` is imported (a registration at
import, e.g. ``Interface.of`` for each semantics class) is credited to
every test that reaches a function of that module, not only to the
test that happened to import it first.
``--validate N`` re-runs N swept mutants, half of them survivors where
there are enough, against the whole suite and reports how often the
two verdicts agree.

The report gives the kill ratio per module and per operator, each
survivor as ``path:line operator #digest`` with its original and
mutated source, and the wall time; the digest is eight hex digits of
the sha256 of the source lines the change spans and of the change,
whitespace collapsed, so a keep line names a statement and its change,
not only a line.  Budget: the full sweep of :data:`SCOPE` (3 166
mutants in 74 files) took 99 minutes on a 2-core machine with the
default 2 workers, beside an A/B benchmark run, the reach map (~3.5
minutes) and the unmutated run included; 2 hours is the limit.  A survivor may be kept by a line
``path:line operator #digest  kind: reason`` (two or more spaces
apart, the path relative to ``src/``) in :data:`KEEP_FILE`, of an accepted kind
(:data:`ACCEPTED_KIND`):

- ``equivalent``: the mutant gives the same observable result on every
  input; the reason argues why;
- ``perf``: a memo or fast path; the reason names the ``gdnbench``
  workload (and metric) it protects and the change that measured it;
- ``program``: a program reads it where the profile hook cannot see,
  e.g. ``gdnbench`` in its child interpreter.

The sweep exits 1 if a survivor has no keep line.  ``--check`` runs no
tests: it exits 1 unless every keep line names a mutant the operators
still make at the current source, with the same digest (an edit above
a kept line can move another statement onto its key), and an accepted
kind; the census's
refused kinds (``test oracle``, ``ROADMAP item``, ``§``) are refused
here too, and so is a ``perf`` reason that names no workload.
"""

from __future__ import annotations

import argparse
import ast
import collections
import hashlib
import importlib.machinery
import json
import os
import pathlib
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: What the sweep mutates, relative to ``src/``: all of it.  A kernel
#: mutant reaches nearly every test, but the tests run fastest first
#: with ``-x``, so the cheapest one that notices it stops the run.
SCOPE = ("repro",)

#: Why each surviving mutant stays (see ``--check``).
KEEP_FILE = ROOT / "tools" / "mutants_keep.txt"
ACCEPTED_KIND = ("equivalent", "perf", "program")

COMPARISONS = {ast.Lt: (ast.LtE, "lt->le"), ast.LtE: (ast.Lt, "le->lt"),
               ast.Gt: (ast.GtE, "gt->ge"), ast.GtE: (ast.Gt, "ge->gt"),
               ast.Eq: (ast.NotEq, "eq->ne"), ast.NotEq: (ast.Eq, "ne->eq")}
BOOLEANS = {ast.And: (ast.Or, "and->or"), ast.Or: (ast.And, "or->and")}
OPERATORS = tuple(name for _op, name in COMPARISONS.values()) + (
    "+1->+0", "and->or", "or->and", "return->None", "delete")


def _census():
    """This checkout's :mod:`tools.census`.  Imported on demand: the
    tool also loads into each mutant's pytest as a plugin (``-p
    mutants``), where putting this checkout on the path would shadow
    the project copy's own ``tools``."""
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from tools import census
    return census


class Mutant(NamedTuple):
    path: str       # relative to src/
    line: int       # first line of the changed code
    operator: str   # one of OPERATORS
    function: str   # qualname of the innermost enclosing def
    start: int      # byte offsets of the changed code in the file
    end: int
    original: str
    replacement: str
    lines: str      # the whole source lines the changed code spans

    @property
    def key(self) -> str:
        return "%s:%d %s" % (self.path, self.line, self.operator)

    @property
    def digest(self) -> str:
        """Eight hex digits of the sha256 of :attr:`lines` and the
        replacement, whitespace collapsed: which statement the key
        names, and which change of it (two ``<=`` of one chain share
        a key)."""
        text = _one_line(self.lines) + "\n" + _one_line(self.replacement)
        return hashlib.sha256(text.encode()).hexdigest()[:8]

    @property
    def keep_key(self) -> str:
        """What a keep line names: the key and the digest."""
        return "%s #%s" % (self.key, self.digest)

    @property
    def ident(self) -> str:
        """Unique within one source: the key and the byte offset."""
        return "%s@%d" % (self.key, self.start)


def _deletable(statement: ast.stmt) -> bool:
    """A call statement, a store to an attribute or subscript, an
    augmented assignment, an ``if`` or a ``del``."""
    if isinstance(statement, ast.Expr):
        value = statement.value
        if isinstance(value, ast.Await):
            value = value.value
        return isinstance(value, ast.Call)
    if isinstance(statement, (ast.AugAssign, ast.If, ast.Delete)):
        return True
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
        targets = [statement.target]
    else:
        return False
    stores = []
    for target in targets:
        stores.extend(target.elts if isinstance(target, (ast.Tuple, ast.List))
                      else [target])
    return any(isinstance(target, (ast.Attribute, ast.Subscript))
               for target in stores)


def mutants_of(source: str, path: str) -> List[Mutant]:
    """Every mutant of one file's ``source`` (its ``path`` relative to
    ``src/`` is only recorded), in source order."""
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(line: int, col: int) -> int:
        return starts[line - 1] + col

    def span(node: ast.AST) -> Tuple[int, int]:
        return (offset(node.lineno, node.col_offset),
                offset(node.end_lineno, node.end_col_offset))

    found: List[Mutant] = []

    def add(node: ast.AST, operator: str, function: str, text: str,
            expression: bool = False) -> None:
        """``node``'s source replaced by ``text``, padded to keep the
        line count (inside parentheses for an ``expression``)."""
        start, end = span(node)
        lines = "\n" * (node.end_lineno - node.lineno)
        text = "(" + text + lines + ")" if expression else text + lines
        found.append(Mutant(path, node.lineno, operator, function, start,
                            end, data[start:end].decode(), text,
                            data[starts[node.lineno - 1]:
                                 starts[node.end_lineno]].decode()))

    def expressions(node: ast.AST, function: str) -> None:
        """Expression mutants of ``node`` and what it holds, except
        inside an f-string (whose inner positions are not reliable)."""
        if isinstance(node, ast.JoinedStr):
            return
        if isinstance(node, ast.Compare):
            for index, op in enumerate(node.ops):
                if type(op) in COMPARISONS:
                    new, name = COMPARISONS[type(op)]
                    ops = list(node.ops)
                    ops[index] = new()
                    add(node, name, function, ast.unparse(
                        ast.Compare(node.left, ops, node.comparators)),
                        expression=True)
        elif isinstance(node, ast.BoolOp):
            new, name = BOOLEANS[type(node.op)]
            add(node, name, function,
                ast.unparse(ast.BoolOp(new(), node.values)), expression=True)
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
              and isinstance(node.right, ast.Constant)
              and type(node.right.value) is int and node.right.value == 1):
            add(node.right, "+1->+0", function, "0")
        for child in ast.iter_child_nodes(node):
            expressions(child, function)

    def own_expressions(statement: ast.stmt) -> Iterator[ast.AST]:
        """What a statement holds itself, not through a nested one."""
        for child in ast.iter_child_nodes(statement):
            if isinstance(child, ast.ExceptHandler):
                if child.type is not None:
                    yield child.type
            elif not isinstance(child, ast.stmt):
                yield child

    def statements(body: List[ast.stmt], function: str, handler: bool,
                   scope: List[str], elif_of: bool = False) -> None:
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + [statement.name]
                statements(statement.body, ".".join(inner),
                           statement.name.startswith("_handle_"), inner)
                continue
            if isinstance(statement, ast.ClassDef):
                statements(statement.body, function, False,
                           scope + [statement.name])
                continue
            if not function:
                continue
            if _deletable(statement) and not elif_of:
                tail = data[span(statement)[1]:starts[statement.end_lineno]]
                if not tail.strip().startswith(b";"):
                    add(statement, "delete", function, "pass")
            if (handler and isinstance(statement, ast.Return)
                    and statement.value is not None
                    and not (isinstance(statement.value, ast.Constant)
                             and statement.value.value is None)):
                add(statement.value, "return->None", function, "None")
            for expression in own_expressions(statement):
                expressions(expression, function)
            for field in ("body", "orelse", "finalbody", "handlers"):
                inner = getattr(statement, field, None) or []
                if field == "handlers":
                    for except_handler in inner:
                        statements(except_handler.body, function, handler,
                                   scope)
                    continue
                nested_elif = (isinstance(statement, ast.If)
                               and field == "orelse" and len(inner) == 1
                               and isinstance(inner[0], ast.If)
                               and _is_elif(data, starts, inner[0]))
                statements(inner, function, handler, scope, nested_elif)

    statements(ast.parse(source, path).body, "", False, [])
    found.sort(key=lambda mutant: (mutant.start, mutant.operator))
    return found


def _is_elif(data: bytes, starts: List[int], node: ast.If) -> bool:
    """Whether ``node`` is written as an ``elif`` branch."""
    line = data[starts[node.lineno - 1]:starts[node.lineno]].decode()
    return line.lstrip().startswith("elif")


def apply(source: str, mutant: Mutant) -> str:
    data = source.encode()
    return (data[:mutant.start] + mutant.replacement.encode()
            + data[mutant.end:]).decode()


def scope_files(src: pathlib.Path, scope) -> List[str]:
    """The ``.py`` files of ``scope`` (files and directories relative
    to ``src``), relative to ``src``, sorted."""
    files = []
    for entry in scope:
        path = src / entry
        found = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        files.extend(file.relative_to(src).as_posix() for file in found)
    return sorted(set(files))


def all_mutants(src: pathlib.Path, files: List[str]) -> List[Mutant]:
    return [mutant for path in files
            for mutant in mutants_of((src / path).read_text(), path)]


# -- the reach map ----------------------------------------------------------

def clear_test_caches(tests: str) -> None:
    """Empty each ``functools`` cache defined in a module under
    ``tests``, so that a result the suite shares between tests is
    computed again, and profiled, for every test that reads it."""
    for module in list(sys.modules.values()):
        path = os.path.realpath(getattr(module, "__file__", None) or "/")
        if not path.startswith(tests + os.sep):
            continue
        for value in list(vars(module).values()):
            if (getattr(value, "__module__", None) == module.__name__
                    and callable(getattr(value, "cache_clear", None))):
                value.cache_clear()


class ReachPlugin:
    """A pytest plugin: runs each test under :func:`census.called_code`
    and records the functions under ``src`` it reached, its duration,
    and whether it started a child interpreter.  The tests' own caches
    are emptied before each (:func:`clear_test_caches`): a shared run
    is credited to every test that reads it, not only to the first."""

    def __init__(self, src: pathlib.Path):
        self.census = _census()
        self.defined = {key: function.qualname for key, function
                        in self.census.functions(src).items()}
        self.base = os.path.realpath(src)
        self.tests_dir = os.path.realpath(src.parent / "tests")
        self.popen = (os.path.realpath(subprocess.__file__),
                      subprocess.Popen.__init__.__code__.co_firstlineno)
        self.tests: Dict[str, float] = {}
        self.reach: Dict[str, Set[str]] = collections.defaultdict(set)
        self.children: List[str] = []
        #: module path under ``src`` -> the functions its import ran.
        self.imported: Dict[str, Set] = collections.defaultdict(set)
        sys.meta_path.insert(0, self)

    def find_spec(self, name, path, target=None):
        """As a finder first on ``sys.meta_path``: a module under
        ``src`` is found as usual, and its loader records what the
        module's code calls while it runs (a nested import's too)."""
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        origin = os.path.realpath(getattr(spec, "origin", None) or "/")
        if spec is None or not origin.startswith(self.base + os.sep):
            return None
        run = spec.loader.exec_module

        def exec_module(module):
            self.imported[os.path.relpath(origin, self.base)] |= \
                self.census.called_code(lambda: run(module))

        spec.loader.exec_module = exec_module
        return spec

    def credit_imports(self) -> None:
        """Credit what each module's import ran to every test that
        reaches a function of that module."""
        for module, keys in self.imported.items():
            users = set().union(*(
                tests for function, tests in self.reach.items()
                if function.split(":")[0] == module))
            for key in keys:
                qualname = self.defined.get(key)
                if qualname is not None and users:
                    self.reach["%s:%s" % (os.path.relpath(key[0], self.base),
                                          qualname)] |= users

    def pytest_runtest_protocol(self, item, nextitem):
        from _pytest.runner import runtestprotocol
        item.ihook.pytest_runtest_logstart(nodeid=item.nodeid,
                                           location=item.location)
        clear_test_caches(self.tests_dir)
        began = time.perf_counter()
        keys = self.census.called_code(
            lambda: runtestprotocol(item, nextitem=nextitem, log=True))
        self.tests[item.nodeid] = time.perf_counter() - began
        for key in keys:
            qualname = self.defined.get(key)
            if qualname is not None:
                self.reach["%s:%s" % (os.path.relpath(key[0], self.base),
                                      qualname)].add(item.nodeid)
        if self.popen in keys:
            self.children.append(item.nodeid)
        item.ihook.pytest_runtest_logfinish(nodeid=item.nodeid,
                                            location=item.location)
        return True


def build_map(root: pathlib.Path, pytest_args: List[str]) -> dict:
    """Run the suite once in ``root``, in this process, under
    :class:`ReachPlugin`; the map as a JSON-ready dict."""
    import pytest
    plugin = ReachPlugin(root / "src")
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    os.environ["CI"] = "1"  # the derandomized draws the mutant runs use
    cwd = os.getcwd()
    os.chdir(root)
    try:
        outcome = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir",
                               str(root)] + pytest_args, plugins=[plugin])
    finally:
        os.chdir(cwd)
        sys.meta_path.remove(plugin)
    if outcome != 0:
        raise SystemExit(outcome)
    plugin.credit_imports()
    return {"tests": plugin.tests,
            "reach": {key: sorted(tests) for key, tests
                      in plugin.reach.items()},
            "children": plugin.children}


def build_map_in(workdir: pathlib.Path, pytest_args: List[str]) -> dict:
    """:func:`build_map` in a child interpreter that imports only
    ``workdir``'s copy of the program, its tools and its tests: the
    copy's own ``tools/mutants.py`` where it has one."""
    script = workdir / "tools" / "mutants.py"
    if not script.exists():
        script = pathlib.Path(__file__).resolve()
    out = workdir / "reach.json"
    done = subprocess.run(
        [sys.executable, str(script), "--root", str(workdir),
         "--build-map", str(out), "--"] + pytest_args, cwd=workdir,
        env=dict(os.environ, PYTHONPATH=str(workdir / "src")))
    if done.returncode != 0:
        raise SystemExit("mutants: the unmutated suite failed (pytest exit "
                         "%s); fix it before sweeping" % done.returncode)
    return json.loads(out.read_text())


# -- running mutants --------------------------------------------------------

#: A mutant's pytest exits with this status when its tests outlive
#: :data:`RUN_TIMEOUT_ENV` seconds or one test :data:`TEST_TIMEOUT_ENV`
#: (see :func:`timeout_plugin`).
HUNG_EXIT = 86
RUN_TIMEOUT_ENV = "MUTANTS_RUN_TIMEOUT"
TEST_TIMEOUT_ENV = "MUTANTS_TEST_TIMEOUT"

#: How long a mutant's pytest may take to start and collect its tests,
#: which its time limits do not count, before the run is stopped as
#: hung from outside.
START_LIMIT = 120.0


def _alarm(seconds: float) -> threading.Timer:
    timer = threading.Timer(seconds, os._exit, (HUNG_EXIT,))
    timer.daemon = True
    timer.start()
    return timer


def timeout_plugin(run: float, test: float):
    """A pytest plugin for a mutant's run: its tests still running
    ``run`` seconds after the first began, or one test after ``test``
    seconds, end the run with :data:`HUNG_EXIT`.  A hang costs one
    test's limit, not the run's, and neither limit counts the
    interpreter's start or the collection, so a slow start on a busy
    machine stops no run."""
    import pytest

    class TestTimeout:
        @pytest.hookimpl(wrapper=True)
        def pytest_runtestloop(self, session):
            timer = _alarm(run)
            try:
                return (yield)
            finally:
                timer.cancel()

        @pytest.hookimpl(wrapper=True)
        def pytest_runtest_protocol(self, item, nextitem):
            timer = _alarm(test)
            try:
                return (yield)
            finally:
                timer.cancel()

    return TestTimeout()


def pytest_configure(config) -> None:
    """Loaded as a plugin (``-p mutants``): arm :func:`timeout_plugin`
    when :data:`RUN_TIMEOUT_ENV` is set."""
    if RUN_TIMEOUT_ENV in os.environ:
        config.pluginmanager.register(timeout_plugin(
            float(os.environ[RUN_TIMEOUT_ENV]),
            float(os.environ[TEST_TIMEOUT_ENV])))


class Verdict(NamedTuple):
    ident: str
    verdict: str    # killed, hung, error or survived
    tests: int      # tests selected
    seconds: float


def _pytest_command(workdir: pathlib.Path, tests: List[str]) -> List[str]:
    return [sys.executable, "-m", "pytest", "-x", "-q", "-p",
            "no:cacheprovider", "-p", "mutants", "--rootdir",
            str(workdir)] + tests


def run_tests(workdir: pathlib.Path, tests: List[str], timeout: float,
              test_timeout: float) -> Tuple[str, str]:
    """(``killed``, ``hung``, ``error`` or ``survived``, output tail) of
    one pytest run of ``tests`` in ``workdir``: hung if the tests take
    ``timeout`` seconds, one test ``test_timeout``, or the start and
    collection :data:`START_LIMIT`."""
    env = dict(os.environ, CI="1", PYTHONPATH=os.pathsep.join(
        (str(workdir / "src"), str(pathlib.Path(__file__).resolve().parent))))
    env[RUN_TIMEOUT_ENV] = str(timeout)
    env[TEST_TIMEOUT_ENV] = str(test_timeout)
    with tempfile.TemporaryFile("w+") as output:
        process = subprocess.Popen(_pytest_command(workdir, tests),
                                   cwd=workdir,
                                   env=env, stdout=output,
                                   stderr=subprocess.STDOUT,
                                   start_new_session=True)
        try:
            code = process.wait(timeout=START_LIMIT + timeout)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            return "hung", ""
        output.seek(0)
        tail = output.read()[-2000:]
    if code == 0:
        return "survived", tail
    if code == HUNG_EXIT:
        return "hung", tail
    return ("killed" if code == 1 else "error"), tail


class Worker:
    """A copy of the project to mutate in, one mutant at a time."""

    def __init__(self, root: pathlib.Path, workdir: pathlib.Path):
        self.root = workdir
        shutil.copytree(root, workdir, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        # Hash-checked bytecode: a mutant of the same size written in
        # the same second as its original is still recompiled.
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        "--invalidation-mode", "checked-hash",
                        str(workdir / "src")], check=True)

    def run(self, mutant: Mutant, tests: List[str], timeout: float,
            test_timeout: float) -> Tuple[str, str]:
        file = self.root / "src" / mutant.path
        original = file.read_text()
        file.write_text(apply(original, mutant))
        try:
            return run_tests(self.root, tests, timeout, test_timeout)
        finally:
            file.write_text(original)


def in_order(tests, reach: dict) -> List[str]:
    """``tests`` fastest first (by profiled time), so that a mutant's
    cheapest killer runs before its dearest."""
    return sorted(tests, key=lambda test: (reach["tests"][test], test))


def selected(mutant: Mutant, reach: dict) -> List[str]:
    """The tests that reach the mutant's function, fastest first; the
    whole suite for a function no test reaches, which may still run
    while the tests are collected (a module-level registration)."""
    tests = reach["reach"].get("%s:%s" % (mutant.path, mutant.function))
    return in_order(tests or reach["tests"], reach)


def time_limits(tests: List[str], reach: dict, cap: float
                ) -> Tuple[float, float]:
    """(the run's, one test's) time limit: 60 s and 30 s plus three
    times the profiled time of the tests and of the slowest one, at
    most ``cap``."""
    spent = [reach["tests"][test] for test in tests]
    return (min(cap, 60.0 + 3.0 * sum(spent)),
            min(cap, 30.0 + 3.0 * max(spent)))


def sweep(copies: List[Worker], mutants: List[Mutant], reach: dict,
          cap: float, done: Dict[str, Verdict], log) -> Dict[str, Verdict]:
    """Run every mutant not in ``done``, costliest first, one per
    project copy at a time; each verdict is appended to ``log`` as it
    comes."""
    todo = [mutant for mutant in mutants if mutant.ident not in done]
    todo.sort(key=lambda mutant: -sum(reach["tests"][test] for test
                                      in selected(mutant, reach)))
    lock = threading.Lock()
    free = list(copies)
    verdicts = dict(done)

    def one(mutant: Mutant) -> None:
        tests = selected(mutant, reach)
        began = time.perf_counter()
        with lock:
            worker = free.pop()
        try:
            verdict, _tail = worker.run(
                mutant, tests, *time_limits(tests, reach, cap))
        finally:
            with lock:
                free.append(worker)
        record = Verdict(mutant.ident, verdict, len(tests),
                         round(time.perf_counter() - began, 2))
        with lock:
            verdicts[mutant.ident] = record
            if log is not None:
                log.write(json.dumps(record._asdict()) + "\n")
                log.flush()
            count = len(verdicts) - len(done)
            if count % 25 == 0 or count == len(todo):
                print("mutants: %d of %d run" % (count, len(todo)),
                      file=sys.stderr, flush=True)

    with ThreadPoolExecutor(max_workers=len(copies)) as pool:
        list(pool.map(one, todo))
    return verdicts


def validate(copies: List[Worker], mutants: List[Mutant],
             verdicts: Dict[str, Verdict], count: int, cap: float,
             pytest_args: List[str]) -> List[Tuple[Mutant, str, str]]:
    """``(mutant, selected verdict, whole-suite verdict)`` for ``count``
    swept mutants, half survivors where there are enough (seeded
    sample); a hang counts as killed on both sides."""
    rng = random.Random(4)
    alive = [mutant for mutant in mutants
             if verdicts[mutant.ident].verdict == "survived"]
    dead = [mutant for mutant in mutants if mutant not in alive]
    pick = rng.sample(alive, min(len(alive), count // 2))
    pick += rng.sample(dead, min(len(dead), count - len(pick)))
    free = list(copies)
    lock = threading.Lock()

    def one(mutant: Mutant) -> Tuple[Mutant, str, str]:
        with lock:
            worker = free.pop()
        try:
            verdict, _tail = worker.run(mutant, pytest_args, cap, cap)
        finally:
            with lock:
                free.append(worker)
        return mutant, verdicts[mutant.ident].verdict, verdict

    with ThreadPoolExecutor(max_workers=len(copies)) as pool:
        return list(pool.map(one, pick))


def _dead(verdict: str) -> bool:
    return verdict in ("killed", "hung", "error")


# -- keep lines ---------------------------------------------------------------

def read_keep(path: pathlib.Path) -> Dict[str, str]:
    """``"path:line operator #digest" -> reason`` of each keep line."""
    keep: Dict[str, str] = {}
    if not path.exists():
        return keep
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = re.split(r"\s{2,}", line, maxsplit=1)
        if len(fields) != 2 or not re.fullmatch(
                r"\S+:\d+ \S+ #[0-9a-f]{8}", fields[0]):
            raise ValueError("%s:%d: want 'path:line operator #digest  "
                             "kind: reason', got %r" % (path, number, line))
        keep[fields[0]] = fields[1]
    return keep


def workloads() -> List[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [workload["name"] for workload in spec["workloads"]]


def keep_problems(keep: Dict[str, str], mutants: List[Mutant]) -> List[str]:
    """What is wrong with each bad keep line: a key no mutant has, a
    digest that is not the source of the mutant at its key, a refused
    or unknown kind, a ``perf`` reason naming no workload."""
    keys = {mutant.keep_key for mutant in mutants}
    moved = {mutant.key for mutant in mutants}
    problems = []
    for key, reason in sorted(keep.items()):
        kind = reason.split(":", 1)[0].strip().lower()
        refused = _census()._refused_kind(reason)
        if key.split(" #")[0] in moved and key not in keys:
            problems.append("stale keep line (the mutant at its key has "
                            "other source): %s" % key)
        elif key not in keys:
            problems.append("stale keep line (no such mutant): %s" % key)
        if refused is not None:
            problems.append("refused keep line (reason kind %s): %s"
                            % (refused, key))
        elif kind not in ACCEPTED_KIND:
            problems.append("keep line of unknown kind %r: %s" % (kind, key))
        elif kind == "perf" and not any(name in reason
                                        for name in workloads()):
            problems.append("perf keep line names no gdnbench workload: %s"
                            % key)
    return problems


# -- the report ---------------------------------------------------------------

def report(mutants: List[Mutant], verdicts: Dict[str, Verdict],
           keep: Dict[str, str], reach: dict, seconds: float,
           workers: int) -> int:
    """Print the sweep's tables and survivors; how many survivors have
    no keep line."""
    def table(title: str, group) -> None:
        rows: Dict[str, collections.Counter] = collections.defaultdict(
            collections.Counter)
        for mutant in mutants:
            verdict = verdicts[mutant.ident].verdict
            row = rows[group(mutant)]
            row["mutants"] += 1
            row[verdict] += 1
            if not _dead(verdict):
                row["kept" if mutant.keep_key in keep else "unkept"] += 1
        print("\n%-40s %7s %6s %4s %5s %8s %4s %6s  %s"
              % (title, "mutants", "killed", "hung", "error", "survived",
                 "kept", "unkept", "kill ratio"))
        total: collections.Counter = collections.Counter()
        for name in sorted(rows):
            total.update(rows[name])
            _row(name, rows[name])
        _row("total", total)

    table("module", lambda mutant: mutant.path)
    table("operator", lambda mutant: mutant.operator)
    survivors = [mutant for mutant in mutants
                 if not _dead(verdicts[mutant.ident].verdict)]
    unkept = [mutant for mutant in survivors
              if mutant.keep_key not in keep]
    print("\nsurvivors (%d, %d without a keep line):" % (len(survivors),
                                                        len(unkept)))
    for mutant in survivors:
        verdict = verdicts[mutant.ident]
        print("%s  %s  (%s, %d tests)%s"
              % (mutant.keep_key, mutant.function, verdict.verdict,
                 verdict.tests, "  kept: " + keep[mutant.keep_key]
                 if mutant.keep_key in keep else ""))
        print("    - " + _one_line(mutant.original))
        print("    + " + _one_line(mutant.replacement))
    hung = [mutant for mutant in mutants
            if verdicts[mutant.ident].verdict in ("hung", "error")]
    if hung:
        print("\nhung or broken (counted as killed):")
        for mutant in hung:
            print("%s  %s  %s" % (mutant.key, mutant.function,
                                  verdicts[mutant.ident].verdict))
    if reach["children"]:
        print("\ntests that start a child interpreter (what it runs is "
              "not in the reach map):")
        for test in reach["children"]:
            print("    " + test)
    busy = sum(verdict.seconds for verdict in verdicts.values())
    print("\nmutants: %d mutants, %.0f s wall on %d workers (%.0f "
          "worker-s)" % (len(mutants), seconds, workers, busy))
    return len(unkept)


def _row(name: str, row: collections.Counter) -> None:
    dead = row["killed"] + row["hung"] + row["error"]
    print("%-40s %7d %6d %4d %5d %8d %4d %6d  %5.1f %%"
          % (name, row["mutants"], row["killed"], row["hung"], row["error"],
             row["survived"], row["kept"], row["unkept"],
             100.0 * dead / max(1, row["mutants"])))


def _one_line(text: str) -> str:
    return " ".join(text.split())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(ROOT),
                        help="project whose src/ and tests to use "
                             "(default: this repository)")
    parser.add_argument("--files", nargs="*",
                        help="files or directories under src/ to mutate "
                             "(default: SCOPE)")
    parser.add_argument("--keep", default=str(KEEP_FILE),
                        help="keep file (default: tools/mutants_keep.txt)")
    parser.add_argument("--check", action="store_true",
                        help="check the keep lines only; runs no tests")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--timeout", type=float, default=240.0,
                        help="most seconds one mutant's tests may take")
    parser.add_argument("--map",
                        help="reach map JSON: read if it exists, else "
                             "built and written there")
    parser.add_argument("--out",
                        help="verdict log (JSON lines): mutants already "
                             "in it are not run again")
    parser.add_argument("--workdir",
                        help="where the project copies go (default: a "
                             "temporary directory)")
    parser.add_argument("--build-map", metavar="FILE",
                        help="only build the reach map of --root, in this "
                             "process, and write it to FILE")
    parser.add_argument("--validate", type=int, default=0, metavar="N",
                        help="re-run N swept mutants against the whole "
                             "suite and compare verdicts")
    parser.add_argument("pytest_args", nargs="*",
                        help="the suite, as pytest arguments (after --)")
    options = parser.parse_args(argv)
    root = pathlib.Path(options.root).resolve()
    src = root / "src"
    if options.build_map:
        pathlib.Path(options.build_map).write_text(json.dumps(
            build_map(root, options.pytest_args)))
        return 0
    files = scope_files(src, options.files or SCOPE)
    mutants = all_mutants(src, files)
    keep = read_keep(pathlib.Path(options.keep))
    if options.check:
        problems = keep_problems(keep, mutants)
        for problem in problems:
            print("mutants: " + problem)
        print("mutants: %d keep lines, %d problems; %d mutants in %d files"
              % (len(keep), len(problems), len(mutants), len(files)))
        return 1 if problems else 0
    began = time.perf_counter()
    workdir = pathlib.Path(options.workdir or tempfile.mkdtemp(
        prefix="mutants-"))
    copies = [Worker(root, workdir / ("w%d" % index))
              for index in range(options.workers)]
    if options.map and os.path.exists(options.map):
        reach = json.loads(pathlib.Path(options.map).read_text())
    else:
        reach = build_map_in(copies[0].root, options.pytest_args)
        if options.map:
            pathlib.Path(options.map).write_text(json.dumps(reach))
    print("mutants: reach map of %d tests ready after %.0f s"
          % (len(reach["tests"]), time.perf_counter() - began),
          file=sys.stderr, flush=True)
    verdict, tail = run_tests(copies[0].root, in_order(reach["tests"], reach),
                              options.timeout * 4, options.timeout)
    if verdict != "survived":
        raise SystemExit("mutants: the unmutated suite %s as the mutants "
                         "run it:\n%s" % (verdict, tail))
    done: Dict[str, Verdict] = {}
    idents = {mutant.ident for mutant in mutants}
    if options.out and os.path.exists(options.out):
        for line in pathlib.Path(options.out).read_text().splitlines():
            verdict = Verdict(**json.loads(line))
            if verdict.ident in idents:
                done[verdict.ident] = verdict
    log = open(options.out, "a") if options.out else None
    try:
        verdicts = sweep(copies, mutants, reach, options.timeout, done, log)
    finally:
        if log is not None:
            log.close()
    unkept = report(mutants, verdicts, keep, reach,
                    time.perf_counter() - began, options.workers)
    if options.validate:
        compared = validate(copies, mutants, verdicts, options.validate,
                            options.timeout, options.pytest_args)
        agree = 0
        print("\nselection against the whole suite:")
        for mutant, mine, whole in compared:
            same = _dead(mine) == _dead(whole)
            agree += same
            print("%s  selected %s, whole suite %s%s"
                  % (mutant.key, mine, whole, "" if same else "  DIFFER"))
        print("mutants: %d of %d verdicts agree" % (agree, len(compared)))
    if not options.workdir:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if unkept else 0


if __name__ == "__main__":
    sys.exit(main())
