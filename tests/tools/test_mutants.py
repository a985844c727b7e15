"""tools/mutants.py on a fixture tree: which mutants do the tests kill?"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from tools import mutants

MUTANTS = pathlib.Path(__file__).resolve().parents[2] / "tools" / "mutants.py"

# Four mutants: deleting the append (the test reads LOG), flipping the
# guard's == (double(3) would be 0), deleting the guard (equivalent:
# 0 * 2 is 0 too) and count_up's + 1 -> + 0 (loops forever).
MODULE = '''\
LOG = []


def record(x):
    LOG.append(x)
    return x


def double(x):
    if x == 0:
        return 0
    return x * 2


def count_up(n):
    i = 0
    while n - i:
        i = i + 1
    return i
'''

TEST = '''\
from fixture_pkg import mod


def test_record():
    assert mod.record(1) == 1
    assert mod.LOG == [1]


def test_double():
    assert mod.double(0) == 0
    assert mod.double(3) == 6


def test_count_up():
    assert mod.count_up(3) == 3
'''

GUARD = next(mutant for mutant in mutants.mutants_of(MODULE, "mod.py")
             if mutant.key == "mod.py:10 delete")
EQUIVALENT = ("fixture_pkg/mod.py:10 delete #%s  equivalent: x * 2 is 0 "
              "when x is 0\n" % GUARD.digest)


def _tree(tmp_path, keep="", module=MODULE):
    package = tmp_path / "src" / "fixture_pkg"
    package.mkdir(parents=True, exist_ok=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(module)
    (tmp_path / "tests").mkdir(exist_ok=True)
    (tmp_path / "tests" / "test_fixture.py").write_text(TEST)
    (tmp_path / "keep.txt").write_text(keep)
    return ["--root", str(tmp_path), "--files", "fixture_pkg/mod.py",
            "--keep", str(tmp_path / "keep.txt")]


def test_the_operators_make_one_mutant_per_place():
    found = [(mutant.key, mutant.original, mutant.replacement)
             for mutant in mutants.mutants_of(MODULE, "mod.py")]
    assert found == [
        ("mod.py:5 delete", "LOG.append(x)", "pass"),
        ("mod.py:10 delete", "if x == 0:\n        return 0", "pass\n"),
        ("mod.py:10 eq->ne", "x == 0", "(x != 0)"),
        ("mod.py:18 +1->+0", "1", "0"),
    ]
    for mutant in mutants.mutants_of(MODULE, "mod.py"):
        compile(mutants.apply(MODULE, mutant), "mod.py", "exec")


def test_the_sweep_kills_the_planted_and_the_looping_mutant(tmp_path):
    # The looping mutant is stopped by the timeout and counted as
    # killed; the equivalent one survives, and its keep line lets the
    # sweep pass.
    env = dict(os.environ, PYTHONPATH="")
    done = subprocess.run(
        [sys.executable, str(MUTANTS), *_tree(tmp_path, EQUIVALENT),
         "--timeout", "2", "--", "tests"], cwd=tmp_path, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=120)
    assert done.returncode == 0, done.stdout
    out = done.stdout.splitlines()
    row = next(line.split() for line in out
               if line.startswith("fixture_pkg/mod.py "))
    mutants, killed, hung, error, survived, kept, unkept = map(int, row[1:8])
    # A slow machine may stop a killed mutant as hung too: both count
    # as killed.
    assert (mutants, killed + hung, error, survived, kept, unkept) \
        == (4, 3, 0, 1, 1, 0)
    assert ("fixture_pkg/mod.py:10 delete #%s  double  (survived, 1 "
            "tests)  kept: equivalent: x * 2 is 0 when x is 0"
            % GUARD.digest) in out
    assert "fixture_pkg/mod.py:18 +1->+0  count_up  hung" in out


CACHED = '''\
import functools

from fixture_pkg import mod


@functools.lru_cache(maxsize=None)
def shared():
    return mod.double(3)


def test_first_reader():
    assert shared() == 6


def test_second_reader():
    assert shared() == 6
'''


NAMES = '''\
NAMES = {}


def register(name):
    NAMES[name] = len(NAMES)


def lookup(name):
    return NAMES[name]


register("alpha")
'''

USERS = '''\
from fixture_pkg import names


def test_first_user():
    assert names.lookup("alpha") == 0


def test_second_user():
    assert names.lookup("alpha") == 0


def test_no_user():
    assert True
'''


@pytest.fixture(scope="module")
def reach_map(tmp_path_factory):
    """The reach map of one fixture tree whose tests share a cached
    call and use a module that registers a name at import: one map
    build, a child interpreter, serves both tests below."""
    tmp_path = tmp_path_factory.mktemp("reach")
    _tree(tmp_path)
    (tmp_path / "src" / "fixture_pkg" / "names.py").write_text(NAMES)
    (tmp_path / "tests" / "test_cached.py").write_text(CACHED)
    (tmp_path / "tests" / "test_names.py").write_text(USERS)
    done = subprocess.run(
        [sys.executable, str(MUTANTS), "--root", str(tmp_path),
         "--build-map", str(tmp_path / "reach.json"), "--",
         "tests/test_cached.py", "tests/test_names.py"], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(tmp_path / "src")),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=120)
    assert done.returncode == 0, done.stdout
    return json.loads((tmp_path / "reach.json").read_text())


def test_the_map_credits_a_cached_call_to_every_test_that_reads_it(
        reach_map):
    assert reach_map["reach"]["fixture_pkg/mod.py:double"] == [
        "tests/test_cached.py::test_first_reader",
        "tests/test_cached.py::test_second_reader"]


def test_the_map_credits_an_import_time_call_to_every_test_of_its_module(
        reach_map):
    # register ran once, while the test module was collected.
    assert reach_map["reach"]["fixture_pkg/names.py:register"] == [
        "tests/test_names.py::test_first_user",
        "tests/test_names.py::test_second_user"]


def test_check_fails_on_a_stale_or_refused_keep_line(tmp_path, capsys):
    assert mutants.main(_tree(tmp_path, EQUIVALENT) + ["--check"]) == 0
    # The guard moved a line down: the keep line names no mutant now.
    stale = EQUIVALENT.replace(":10 ", ":11 ")
    assert mutants.main(_tree(tmp_path, stale) + ["--check"]) == 1
    refused = EQUIVALENT.replace("equivalent:", "test oracle:")
    assert mutants.main(_tree(tmp_path, refused) + ["--check"]) == 1
    unknown = EQUIVALENT.replace("equivalent:", "harmless:")
    assert mutants.main(_tree(tmp_path, unknown) + ["--check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "mutants: stale keep line (no such mutant): " \
        "fixture_pkg/mod.py:11 delete #" + GUARD.digest in out
    assert "mutants: refused keep line (reason kind test oracle): " \
        "fixture_pkg/mod.py:10 delete #" + GUARD.digest in out
    assert "mutants: keep line of unknown kind 'harmless': " \
        "fixture_pkg/mod.py:10 delete #" + GUARD.digest in out


def test_check_fails_when_lines_above_move_another_statement_onto_a_key(
        tmp_path, capsys):
    # Two lines inserted above the kept guard put a deletable call at
    # its line: the key names a mutant still, but not the kept one.
    shifted = MODULE.replace("    if x == 0:",
                             "    LOG.append(x)\n    LOG.append(x)\n"
                             "    if x == 0:")
    assert "mod.py:10 delete" in {
        mutant.key for mutant in mutants.mutants_of(shifted, "mod.py")}
    assert mutants.main(_tree(tmp_path, EQUIVALENT, shifted)
                        + ["--check"]) == 1
    assert "mutants: stale keep line (the mutant at its key has other " \
        "source): fixture_pkg/mod.py:10 delete #" + GUARD.digest \
        in capsys.readouterr().out.splitlines()


def test_a_keep_line_without_its_digest_is_refused(tmp_path):
    bare = EQUIVALENT.replace(" #" + GUARD.digest, "")
    with pytest.raises(ValueError, match="#digest"):
        mutants.main(_tree(tmp_path, bare) + ["--check"])


def test_check_runs_without_pytest(tmp_path):
    # CI runs --check where only the standard library is installed.
    blocked = ("import runpy, sys; sys.modules['pytest'] = None; "
               "sys.modules['_pytest'] = None; sys.argv = sys.argv[1:]; "
               "runpy.run_path(sys.argv[0], run_name='__main__')")
    done = subprocess.run(
        [sys.executable, "-c", blocked, str(MUTANTS),
         *_tree(tmp_path, EQUIVALENT), "--check"], cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=60)
    assert done.returncode == 0, done.stdout
