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
    # tool: width by position, with no self to skip (and by its one
    # call, always the same literal).
    assert lines == [
        "fixture_pkg/mod.py:1  fetch(verbose)",
        "fixture_pkg/mod.py:14  Base.make(flavour)",
        "fixture_pkg/mod.py:18  Base.tool(depth)",
        "fixture_pkg/mod.py:18  Base.tool(width)  always 4",
        "fixture_pkg/mod.py:23  Child.__init__(label)",
        "fixture_pkg/mod.py:23  Child.__init__(size)",
        "census: 5 of 10 keyword options under %s never passed, 1 more "
        "always passed one literal" % (tmp_path / "src"),
    ]


ONE_VALUE_MODULE = '''\
def serve(durable=False, mode="async", level=1, name="x"):
    return durable
'''

ONE_VALUE_CALLER = '''\
from fixture_pkg.mod import serve

LEVEL = 3
serve(durable=True, mode="sync", level=LEVEL, name="y")
serve(True, mode="sync", level=LEVEL)
'''


def _options_tree(tmp_path, module, caller=None):
    package = tmp_path / "src" / "fixture_pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(module)
    if caller is not None:
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "use.py").write_text(caller)
    return str(tmp_path / "src")


def test_options_lists_an_option_every_call_sets_to_one_literal(
        tmp_path, capsys):
    # durable: True by keyword and by position; mode: always "sync".
    # Not level (a name, not a literal) nor name (one call leaves the
    # default): the programs use two values of it.
    src = _options_tree(tmp_path, ONE_VALUE_MODULE, ONE_VALUE_CALLER)
    assert census.main(["--options", "--src", src]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "fixture_pkg/mod.py:1  serve(durable)  always True",
        "fixture_pkg/mod.py:1  serve(mode)  always 'sync'",
        "census: 0 of 4 keyword options under %s never passed, 2 more "
        "always passed one literal" % src,
    ]


CHECK_OPTIONS_MODULE = '''\
def serve(port=80, seed=1, knob=2, other=3):
    return port
'''


def _check_options(tmp_path, monkeypatch, keep,
                   module=CHECK_OPTIONS_MODULE, caller=None):
    """``--options --check`` on ``module`` (by default a def nobody
    calls) and its ``caller``, ``keep`` as the keep file."""
    (tmp_path / "keep.txt").write_text(keep)
    monkeypatch.setattr(census, "KEEP_FILE", tmp_path / "keep.txt")
    src = _options_tree(tmp_path, module, caller)
    return census.main(["--options", "--check", "--src", src])


def test_options_check_fails_on_an_unexplained_option(
        tmp_path, monkeypatch, capsys):
    # port and seed are exempt by rule; knob has its reason, other none.
    keep = "fixture_pkg/mod.py  serve(knob)  a deployment setting\n"
    assert _check_options(tmp_path, monkeypatch, keep) == 1
    out = capsys.readouterr().out.splitlines()
    assert "census: unexplained: fixture_pkg/mod.py  serve(other)" in out
    assert out[-1] == ("census: 2 exempt by rule, 1 kept with a reason, "
                       "1 unexplained; 0 stale keep entries")


def test_options_check_fails_on_a_stale_keep_entry(
        tmp_path, monkeypatch, capsys):
    # One entry names an option that is gone, one an exempt option;
    # a function's keep entry is the traffic check's, not this one's.
    keep = ("fixture_pkg/mod.py  serve(knob)  a deployment setting\n"
            "fixture_pkg/mod.py  serve(other)  an input check\n"
            "fixture_pkg/mod.py  serve(gone)  teardown\n"
            "fixture_pkg/mod.py  serve(port)  a port\n"
            "fixture_pkg/mod.py  serve  the paper's section 9\n")
    assert _check_options(tmp_path, monkeypatch, keep) == 1
    out = capsys.readouterr().out.splitlines()
    assert "census: stale keep entry: fixture_pkg/mod.py  serve(gone)" in out
    assert "census: stale keep entry: fixture_pkg/mod.py  serve(port)" in out
    assert out[-1] == ("census: 2 exempt by rule, 2 kept with a reason, "
                       "0 unexplained; 2 stale keep entries")


SPEC_MODULE = '''\
class GdnDeployment:
    def __init__(self, seed=0, secure=True):
        self.seed = seed

    @classmethod
    def from_spec(cls, spec):
        gdn = cls(**{key: spec[key] for key in spec if key != "httpds"})
        for name, httpd in spec.get("httpds", {}).items():
            gdn.add_httpd(name, **httpd)

    def add_httpd(self, name, site=None, cache_policy=None,
                  binding_ttl=300.0, planted=1):
        return name
'''

SPEC_CALLER = '''\
from fixture_pkg.mod import GdnDeployment

GdnDeployment.from_spec({
    "seed": 3,
    "httpds": {"ap": {"site": "r0/c0/m0/s1", "cache_ttl": None},
               "edge": {"site": "r1/c0/m0/s0", "binding_ttl": 2.0}}})
'''


def test_options_check_sees_an_option_no_spec_sets(
        tmp_path, monkeypatch, capsys):
    # from_spec's splatted calls do not count; the spec literal handed
    # to it does: seed by its own key, and site, binding_ttl and (as
    # cache_ttl) cache_policy by HTTPD entries' keys.  Nothing sets
    # secure or planted, so both are listed, and neither has a reason.
    assert _check_options(tmp_path, monkeypatch, "", SPEC_MODULE,
                          SPEC_CALLER) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == [
        "fixture_pkg/mod.py:2  GdnDeployment.__init__(secure)",
        "fixture_pkg/mod.py:2  GdnDeployment.__init__(seed)  always 3",
        "fixture_pkg/mod.py:11  GdnDeployment.add_httpd(planted)",
        "census: 2 of 6 keyword options under %s never passed, 1 more "
        "always passed one literal" % (tmp_path / "src"),
    ]
    assert ("census: unexplained: fixture_pkg/mod.py  "
            "GdnDeployment.add_httpd(planted)") in out
    assert out[-1].endswith("2 unexplained; 0 stale keep entries")


def test_traffic_lists_the_functions_no_entry_point_reaches(
        tmp_path, monkeypatch, capsys):
    # The real entry points: the thirteen tables, the eight examples and
    # the five gdnbench workloads, none of them run here.
    monkeypatch.setattr(sys, "path", list(sys.path))
    kinds = [label.split()[0] for label, _run in census.traffic()]
    assert [kinds.count(kind) for kind in ("table", "example", "workload")] \
        == [13, 8, 5]
    # On a fixture tree: what the entries reach is off the list, and an
    # entry that raises is reported without hiding the rest.
    package = tmp_path / "src" / "fixture_pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    for name in ("fixture_pkg", "fixture_pkg.mod"):  # another test's tree
        monkeypatch.delitem(sys.modules, name, raising=False)

    def fixture_traffic():
        from fixture_pkg import mod
        return [("example called", mod.called),
                ("example broken", lambda: 1 / 0),
                ("workload shape", lambda: mod.Shape().area())]

    monkeypatch.setattr(census, "traffic", fixture_traffic)
    assert census.main(["--traffic", "--src", str(tmp_path / "src")]) == 1
    captured = capsys.readouterr()
    assert "example broken failed" in captured.err
    assert captured.out.splitlines() == [
        "fixture_pkg/mod.py:14  never  (4 lines)",
        "fixture_pkg/mod.py:15  never.nested_never  (2 lines)",
        "fixture_pkg/mod.py:20  decorated_called  (3 lines)",
        "fixture_pkg/mod.py:25  generator_called  (2 lines)",
        "fixture_pkg/mod.py:33  Shape.unused_method  (2 lines)",
        "census: 5 of 9 functions under %s never reached by the 3 tables, "
        "examples, workloads and ladder rungs (11 lines)"
        % (tmp_path / "src"),
        "census: 0 of 0 (registering def, instrument) pairs under %s never "
        "read by name (0 of 0 names registered; 0 read)" % (tmp_path / "src"),
    ]


def test_traffic_runs_each_ladder_rung_once(monkeypatch):
    # Only the ladder builds a UniformSchedule: no table, example or
    # workload does, so a census without the rungs listed it unreached.
    monkeypatch.setattr(sys, "path", list(sys.path))
    entries = dict(census.traffic())
    from gdnbench.ladder import RUNGS
    assert [label for label in entries if label.startswith("rung ")] \
        == ["rung " + name for name in RUNGS]
    src = pathlib.Path(census.ROOT) / "src"
    _total, uncalled, _lines = census.census(
        src, entries["rung workloads.scenario.drive"])
    unreached = {function.qualname for function in uncalled}
    assert "UniformSchedule.times" not in unreached
    assert "ZipfSampler.sample" in unreached  # what the rung does not run


CHECK_MODULE = MODULE + '''

    def __len__(self):
        return 7

    def abstract(self):
        """Subclasses say."""
        raise NotImplementedError
'''


def _check(tmp_path, monkeypatch, keep):
    """``--traffic --check`` on the fixture tree, with ``keep`` as the
    keep file and entry points that reach ``called`` and ``Shape.area``."""
    package = tmp_path / "src" / "fixture_pkg"
    package.mkdir(parents=True, exist_ok=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(CHECK_MODULE)
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    for name in ("fixture_pkg", "fixture_pkg.mod"):  # another test's tree
        monkeypatch.delitem(sys.modules, name, raising=False)
    (tmp_path / "keep.txt").write_text(keep)
    monkeypatch.setattr(census, "KEEP_FILE", tmp_path / "keep.txt")

    def fixture_traffic():
        from fixture_pkg import mod
        return [("example called", mod.called),
                ("workload shape", lambda: mod.Shape().area())]

    monkeypatch.setattr(census, "traffic", fixture_traffic)
    return census.main(["--traffic", "--check", "--src",
                        str(tmp_path / "src")])


KEEP = """\
# path  Qualname  reason
fixture_pkg/mod.py  never  the paper's section 9
fixture_pkg/mod.py  never.nested_never  the paper's section 9
fixture_pkg/mod.py  decorated_called  fault handling
fixture_pkg/mod.py  generator_called  teardown
"""


def test_check_fails_on_an_unexplained_function(
        tmp_path, monkeypatch, capsys):
    # Shape.__len__ (a dunder) and Shape.abstract (only raises) are
    # exempt by rule; with a reason for each of the rest, the check
    # passes.
    keep = KEEP + "fixture_pkg/mod.py  Shape.unused_method  teardown\n"
    assert _check(tmp_path, monkeypatch, keep) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == ("census: 2 exempt by rule, 5 kept with a reason, "
                       "0 unexplained; 0 stale keep entries")
    assert _check(tmp_path, monkeypatch, KEEP) == 1
    out = capsys.readouterr().out.splitlines()
    assert "census: unexplained: fixture_pkg/mod.py  Shape.unused_method" \
        in out
    assert out[-1].endswith("1 unexplained; 0 stale keep entries")


def test_check_refuses_a_test_oracle_reason(tmp_path, monkeypatch, capsys):
    # A reason's kind is its text before the first ':'.  A "test
    # oracle" line is refused, and the function it names stays
    # unexplained; the same words after the ':' are no kind.
    keep = KEEP + ("fixture_pkg/mod.py  Shape.unused_method  "
                   "Test oracle: test_shape reads the method\n")
    assert _check(tmp_path, monkeypatch, keep) == 1
    out = capsys.readouterr().out.splitlines()
    assert ("census: refused keep entry (reason kind test oracle): "
            "fixture_pkg/mod.py  Shape.unused_method") in out
    assert "census: unexplained: fixture_pkg/mod.py  Shape.unused_method" \
        in out
    assert out[-1].endswith("1 unexplained; 0 stale keep entries")
    keep = KEEP + ("fixture_pkg/mod.py  Shape.unused_method  "
                   "teardown: no test oracle\n")
    assert _check(tmp_path, monkeypatch, keep) == 0


def test_check_refuses_a_roadmap_item_reason(tmp_path, monkeypatch, capsys):
    # A reason whose kind starts with "ROADMAP item" is a promise, not
    # a caller: refused, and the function it names stays unexplained.
    # An item cited after the ':' is no kind.
    keep = KEEP + ("fixture_pkg/mod.py  Shape.unused_method  "
                   "ROADMAP item 7: the fuzzer will call it\n")
    assert _check(tmp_path, monkeypatch, keep) == 1
    out = capsys.readouterr().out.splitlines()
    assert ("census: refused keep entry (reason kind roadmap item): "
            "fixture_pkg/mod.py  Shape.unused_method") in out
    assert "census: unexplained: fixture_pkg/mod.py  Shape.unused_method" \
        in out
    assert out[-1].endswith("1 unexplained; 0 stale keep entries")
    keep = KEEP + ("fixture_pkg/mod.py  Shape.unused_method  "
                   "teardown: ROADMAP item 7 reads it too\n")
    assert _check(tmp_path, monkeypatch, keep) == 0


def test_check_refuses_a_section_reason(tmp_path, monkeypatch, capsys):
    # A reason whose kind starts with "§" names the paper section the
    # code reproduces, but a section is reproduced only where a program
    # does what it describes: refused, and the function it names stays
    # unexplained.  A section cited after the ':' is no kind.
    keep = KEEP + ("fixture_pkg/mod.py  Shape.unused_method  "
                   "§6.1 moderator commands: shrink a scenario\n")
    assert _check(tmp_path, monkeypatch, keep) == 1
    out = capsys.readouterr().out.splitlines()
    assert ("census: refused keep entry (reason kind §): "
            "fixture_pkg/mod.py  Shape.unused_method") in out
    assert "census: unexplained: fixture_pkg/mod.py  Shape.unused_method" \
        in out
    assert out[-1].endswith("1 unexplained; 0 stale keep entries")
    keep = KEEP + ("fixture_pkg/mod.py  Shape.unused_method  "
                   "teardown: §6.1 removes replicas with it\n")
    assert _check(tmp_path, monkeypatch, keep) == 0


def test_check_fails_on_a_stale_keep_entry(tmp_path, monkeypatch, capsys):
    # One entry names a function the entry point now reaches, one a
    # function that is gone.
    keep = (KEEP + "fixture_pkg/mod.py  Shape.unused_method  teardown\n"
            "fixture_pkg/mod.py  called  fault handling\n"
            "fixture_pkg/mod.py  deleted_long_ago  teardown\n")
    assert _check(tmp_path, monkeypatch, keep) == 1
    out = capsys.readouterr().out.splitlines()
    assert "census: stale keep entry: fixture_pkg/mod.py  called" in out
    assert ("census: stale keep entry: fixture_pkg/mod.py  deleted_long_ago"
            in out)
    assert out[-1].endswith("0 unexplained; 2 stale keep entries")


SPLAT_MODULE = '''\
class GlsLookupCache:
    def __init__(self, sim, ttl=60.0, capacity=10, serve_stale=False):
        self.sim = sim


class GdnDeployment:
    def __init__(self, seed=0, gls_cache=None):
        self._cache_options = gls_cache

    @classmethod
    def from_spec(cls, spec):
        return cls(**spec)

    def lookup_cache(self):
        return GlsLookupCache(None, **self._cache_options)
'''

SPLAT_CALLER = '''\
from fixture_pkg.mod import GdnDeployment

SIZE = 4
GdnDeployment.from_spec({"seed": 1, "gls_cache": {"ttl": 30.0}})
GdnDeployment(seed=2, gls_cache={"capacity": SIZE, "ttl": 30.0})
'''


def test_options_reads_a_gls_cache_dict_by_key(tmp_path, capsys):
    # The deployment's ** splat into the cache passes nothing; the dict
    # literals handed to gls_cache, by keyword or as a spec key, pass
    # the cache's options by key: capacity (a name) and ttl (always
    # 30.0).  No program turns serve_stale on.
    src = _options_tree(tmp_path, SPLAT_MODULE, SPLAT_CALLER)
    assert census.main(["--options", "--src", src]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "fixture_pkg/mod.py:2  GlsLookupCache.__init__(serve_stale)",
        "fixture_pkg/mod.py:2  GlsLookupCache.__init__(ttl)  always 30.0",
        "census: 1 of 5 keyword options under %s never passed, 1 more "
        "always passed one literal" % src,
    ]


STATE_MODULE = '''\
from repro.analysis.telemetry import MetricsRegistry


class Meter:
    __slots__ = ("ticks", "drops", "spins", "resets")

    def __init__(self):
        self.ticks = 0
        self.drops = 0
        self.spins = 0
        self.resets = 0

    def tick(self):
        self.ticks += 1
        self.spins += 1
        self.resets += 1

    def bind_metrics(self, registry, prefix):
        registry.counter(prefix + ".ticks", fn=lambda: self.ticks)
        registry.counter(prefix + ".drops", fn=lambda: self.drops)


def program():
    registry = MetricsRegistry()
    for name in ("a", "b"):
        Meter().bind_metrics(registry, "meter." + name)
    return registry.get("meter.b.ticks").value
'''

STATE_TEST = '''\
from repro.analysis.telemetry import MetricsRegistry

from fixture_pkg.mod import Meter


def test_meter():
    meter = Meter()
    meter.tick()
    assert meter.resets == 1
    registry = MetricsRegistry()
    meter.bind_metrics(registry, "meter")
    assert registry.get("meter.drops").value == 0
'''


def _state_tree(tmp_path, monkeypatch, keep):
    """The meter fixture under ``src/``, its test under ``tests/`` and
    ``keep`` as the keep file; the one program registers two meters
    and reads one instrument of one of them."""
    package = tmp_path / "src" / "fixture_pkg"
    package.mkdir(parents=True, exist_ok=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(STATE_MODULE)
    (tmp_path / "tests").mkdir(exist_ok=True)
    (tmp_path / "tests" / "test_meter.py").write_text(STATE_TEST)
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    for name in ("fixture_pkg", "fixture_pkg.mod"):  # another test's tree
        monkeypatch.delitem(sys.modules, name, raising=False)
    (tmp_path / "keep.txt").write_text(keep)
    monkeypatch.setattr(census, "KEEP_FILE", tmp_path / "keep.txt")

    def fixture_traffic():
        from fixture_pkg import mod
        return [("example meter", mod.program)]

    monkeypatch.setattr(census, "traffic", fixture_traffic)
    return str(tmp_path / "src")


def test_state_and_traffic_list_write_only_state_and_unread_instruments(
        tmp_path, monkeypatch, capsys):
    # spins is stored and bumped, never loaded (__slots__ names it, and
    # does not count); resets is loaded by a test, which counts for an
    # attribute.  drops is registered by both meters and read only by
    # the test, which does not count for an instrument.
    src = _state_tree(tmp_path, monkeypatch, "")
    assert census.main(["--state", "--src", src]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "fixture_pkg/mod.py:10  Meter.self.spins",
        "census: 1 of 4 attributes stored under %s never loaded in src, "
        "examples, gdnbench, tests" % src,
        "census: 0 names imported under %s and never used" % src,
    ]
    assert census.main(["--traffic", "--src", src]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == [
        "fixture_pkg/mod.py  Meter.bind_metrics[drops]  (2 names)",
        "census: 1 of 2 (registering def, instrument) pairs under %s "
        "never read by name (2 of 4 names registered; 1 read)" % src,
    ]


def test_state_and_instrument_checks_take_keep_lines(
        tmp_path, monkeypatch, capsys):
    # Unexplained, each check fails on its own finding.
    src = _state_tree(tmp_path, monkeypatch, "")
    assert census.main(["--state", "--check", "--src", src]) == 1
    assert census.main(["--traffic", "--check", "--src", src]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "census: unexplained: fixture_pkg/mod.py  Meter.self.spins" in out
    assert ("census: unexplained: fixture_pkg/mod.py  "
            "Meter.bind_metrics[drops]") in out
    # A keep line silences each, and neither check reads the other's.
    keep = ("fixture_pkg/mod.py  Meter.self.spins  fault handling: a\n"
            "fixture_pkg/mod.py  Meter.bind_metrics[drops]  teardown: b\n"
            "fixture_pkg/mod.py  Meter.tick  teardown: c\n")
    src = _state_tree(tmp_path, monkeypatch, keep)
    assert census.main(["--state", "--check", "--src", src]) == 0
    assert census.main(["--traffic", "--check", "--src", src]) == 0
    capsys.readouterr()
    # A keep line for a loaded attribute or a read instrument is stale.
    keep += ("fixture_pkg/mod.py  Meter.self.resets  teardown: d\n"
             "fixture_pkg/mod.py  Meter.bind_metrics[ticks]  teardown: e\n")
    src = _state_tree(tmp_path, monkeypatch, keep)
    assert census.main(["--state", "--check", "--src", src]) == 1
    assert census.main(["--traffic", "--check", "--src", src]) == 1
    out = capsys.readouterr().out.splitlines()
    assert ("census: stale keep entry: fixture_pkg/mod.py  "
            "Meter.self.resets") in out
    assert ("census: stale keep entry: fixture_pkg/mod.py  "
            "Meter.bind_metrics[ticks]") in out
    assert out.count("census: 0 exempt by rule, 1 kept with a reason, "
                     "0 unexplained; 1 stale keep entries") == 1


KIN_MODULE = '''\
import os
from typing import List


class Base:
    def __init__(self):
        self.shared = 0


class Child(Base):
    def total(self) -> "List[int]":
        return [self.shared]


class Mirror:
    def __init__(self):
        self.bytes_served = 0
        self.hits = 0


class Httpd:
    def __init__(self):
        self.bytes_served = 0

    def report(self):
        return self.bytes_served


def hits(mirror):
    return mirror.hits
'''


def test_state_counts_a_self_load_only_for_the_loading_class_and_its_kin(
        tmp_path, monkeypatch, capsys):
    # Httpd's own self.bytes_served load does not clear Mirror's store
    # of the same name; Child's self.shared clears its base's store; a
    # load through another receiver (mirror.hits) counts by name.  The
    # unused ``os`` fails the check; ``List``, used in a quoted
    # annotation, does not.  In a package __init__, a submodule load
    # and a name a test imports from the package count as used; a
    # re-export nothing imports from it fails, ``__all__`` or not.
    package = tmp_path / "src" / "fixture_pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from . import mod\nfrom .mod import Child, Mirror\n"
        "__all__ = [\"Child\", \"Mirror\"]\n")
    (package / "mod.py").write_text(KIN_MODULE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_pkg.py").write_text(
        "from fixture_pkg import Child\n")
    (tmp_path / "keep.txt").write_text("")
    monkeypatch.setattr(census, "KEEP_FILE", tmp_path / "keep.txt")
    src = str(tmp_path / "src")
    assert census.main(["--state", "--check", "--src", src]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [
        "fixture_pkg/mod.py:17  Mirror.self.bytes_served",
        "census: 1 of 4 attributes stored under %s never loaded in src, "
        "examples, gdnbench, tests" % src,
    ]
    assert out[2:5] == [
        "fixture_pkg/__init__.py:2  import Mirror",
        "fixture_pkg/mod.py:1  import os",
        "census: 2 names imported under %s and never used" % src,
    ]
