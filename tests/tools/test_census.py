"""tools/census.py on a fixture tree: which defs did the tests never call?"""

import os
import pathlib
import subprocess
import sys
import textwrap

from tools import census

CENSUS = pathlib.Path(__file__).resolve().parents[2] / "tools" / "census.py"

MODULE = '''\
import functools


def called():
    return helper()


def helper():
    def nested_called():
        return 1
    return nested_called()


def never():
    def nested_never():
        return 2
    return nested_never()


@functools.lru_cache(maxsize=None)
def decorated_called():
    return 3


def generator_called():
    yield 4


class Shape:
    def area(self):
        return 5

    def unused_method(self):
        return 6
'''

TEST = '''\
from fixture_pkg import mod


def test_some():
    assert mod.called() == 1
    assert mod.decorated_called() == 3
    assert list(mod.generator_called()) == [4]
    assert mod.Shape().area() == 5
'''


def test_census_lists_exactly_the_functions_the_tests_never_ran(tmp_path):
    package = tmp_path / "src" / "fixture_pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_fixture.py").write_text(TEST)
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"))
    done = subprocess.run(
        [sys.executable, str(CENSUS), "--src", str(tmp_path / "src"), "--",
         "-q", "-p", "no:cacheprovider", str(tmp_path / "tests")],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, text=True,
        timeout=120)
    assert done.returncode == 0, done.stdout
    listed = [line for line in done.stdout.splitlines()
              if line.startswith("fixture_pkg")]
    assert listed == textwrap.dedent("""\
        fixture_pkg/mod.py:14  never  (4 lines)
        fixture_pkg/mod.py:15  never.nested_never  (2 lines)
        fixture_pkg/mod.py:33  Shape.unused_method  (2 lines)""").splitlines()
    # Nine defs; the nested one's lines are counted once.
    assert done.stdout.splitlines()[-1] == (
        "census: 3 of 9 functions under %s never called (6 lines)"
        % (tmp_path / "src"))


OPTIONS_MODULE = '''\
def fetch(url, timeout=1.0, retries=3, *, verbose=False):
    return url


def forward(url, **options):
    return fetch(url, **options)


class Base:
    def __init__(self, size=1, colour="red"):
        self.size = size

    @classmethod
    def make(cls, flavour="plain"):
        return cls(colour="blue")

    @staticmethod
    def tool(width=2, depth=3):
        return width


class Child(Base):
    def __init__(self, label="x", size=1):
        super().__init__(size)
'''

OPTIONS_CALLER = '''\
from fixture_pkg.mod import Base, Child, fetch, forward

forward("a", retries=5)
fetch("b", 2.0)
Child()
Base.make()
Base.tool(4)
'''


def test_options_lists_the_keyword_options_no_call_passes(tmp_path, capsys):
    package = tmp_path / "src" / "fixture_pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(OPTIONS_MODULE)
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "use.py").write_text(OPTIONS_CALLER)
    assert census.main(["--options", "--src", str(tmp_path / "src")]) == 0
    lines = capsys.readouterr().out.splitlines()
    # fetch: timeout by position, retries through forward's **options;
    # Base: size through super().__init__, colour through cls(...);
    # tool: width by position, with no self to skip.
    assert lines == [
        "fixture_pkg/mod.py:1  fetch(verbose)",
        "fixture_pkg/mod.py:14  Base.make(flavour)",
        "fixture_pkg/mod.py:18  Base.tool(depth)",
        "fixture_pkg/mod.py:23  Child.__init__(label)",
        "fixture_pkg/mod.py:23  Child.__init__(size)",
        "census: 5 of 10 keyword options under %s never passed"
        % (tmp_path / "src"),
    ]
