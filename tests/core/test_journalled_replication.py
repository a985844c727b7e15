"""Replication by change sets: the journal, the package's change sets,
and master/slave plus caches over pushes that go astray.

A master seals each write's change set under the next version; slaves
and caches replay change sets strictly in version order and ask for
what they miss.  Nothing here assumes a push arrives, arrives once or
arrives in order.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import journal as journal_module
from repro.core.journal import JOURNAL_DEPTH, Journal
from repro.gdn.package import PackageSemantics
from tests.lossy import PushMeddler
from tests.util import PackageBed, package_contents


# -- the journal --------------------------------------------------------------

def test_journal_appends_only_the_next_version():
    journal = Journal(3)
    journal.append(4, "a")
    with pytest.raises(ValueError):
        journal.append(6, "c")
    with pytest.raises(ValueError):
        journal.append(4, "again")
    assert journal.version == 4 and len(journal) == 1


def test_journal_since_is_empty_when_current_and_none_out_of_reach():
    journal = Journal(0)
    for version in range(1, JOURNAL_DEPTH + 3):
        journal.append(version, version)
    top = journal.version
    assert journal.since(top) == []
    assert journal.since(top - 2) == [top - 1, top]
    assert journal.since(top - JOURNAL_DEPTH) == \
        list(range(top - JOURNAL_DEPTH + 1, top + 1))
    assert journal.since(top - JOURNAL_DEPTH - 1) is None
    assert journal.since(top + 1) is None  # never issued
    journal.reset(top + 5)
    assert journal.since(top) is None and journal.since(top + 5) == []


# -- the package's change sets ------------------------------------------------

def _package():
    package = PackageSemantics()
    package.addFile("a", b"1")
    package.addFile("b", b"2")
    package.setAttribute("category", "tools")
    package.take_changes()
    return package


def test_a_change_set_names_what_one_write_changed_sharing_its_bytes():
    package = _package()
    data = b"x" * 4096
    package.addFile("a", data)
    changes = package.take_changes()
    assert set(changes) == {"version", "history", "files"}
    assert changes["files"]["a"] is data
    assert changes["version"] == package.getVersion()
    assert package.take_changes()["history"] == b""  # sealed once


def test_change_sets_replayed_in_order_rebuild_the_package():
    master = _package()
    copy = PackageSemantics()
    copy.restore_replication_state(master.replication_state())
    sets = []
    for write in (lambda: master.addFile("c", b"3"),
                  lambda: master.delFile("a"),
                  lambda: master.setAttribute("os", "any"),
                  lambda: master.addFile("a", b"back"),
                  lambda: master.addFile("a", b"newer"),
                  lambda: master.restoreFile("a", master.getVersion())):
        write()
        sets.append(master.take_changes())
    for changes in sets:
        copy.apply_changes(changes)
    assert copy.getFileContents("a") == b"back"
    assert copy.snapshot_state()["files"] == master.snapshot_state()["files"]
    assert copy.getAttributes() == master.getAttributes()
    assert copy.getHistory() == master.getHistory()
    assert copy.take_changes()["history"] == b""  # a copy notes nothing


def test_squash_is_last_write_wins_per_file():
    master = _package()
    base = master.replication_state()
    sets = []
    for write in (lambda: master.addFile("a", b"v1"),
                  lambda: master.delFile("b"),
                  lambda: master.addFile("a", b"v2"),
                  lambda: master.addFile("b", b"again"),
                  lambda: master.delFile("a")):
        write()
        sets.append(master.take_changes())
    squashed = master.squash_changes(sets)
    assert squashed["files"] == {"b": b"again"}
    assert squashed["deleted"] == ["a"]
    assert squashed["history"] == b"".join(s["history"] for s in sets)
    assert master.squash_changes(sets[:1]) is sets[0]
    copy = PackageSemantics()
    copy.restore_replication_state(base)
    copy.apply_changes(squashed)
    assert copy.listContents() == master.listContents()
    assert copy.getHistory() == master.getHistory()


# -- replica lifecycle --------------------------------------------------------

def test_a_slave_that_left_is_pushed_nothing_and_the_journal_goes_on():
    bed = PackageBed()
    bed.write("addFile", path="a", data=b"1")
    bed.settle()
    master = bed.master.replication
    journal = master.journal
    before = (journal.version, len(journal))
    bed.slave.replication.stop()
    bed.settle()
    assert not master.slaves
    assert (journal.version, len(journal)) == before
    pushes = []
    send = master._send
    master._send = lambda address, message: (
        pushes.append(message["type"]) or send(address, message))
    bed.write("addFile", path="a", data=b"2")
    bed.settle()
    assert pushes == []
    assert journal.version == before[0] + 1
    assert len(journal) == before[1] + 1
    assert bed.slave.semantics.getFileContents("a") == b"1"


def _pull_the_cache(bed, have_version):
    cache = bed.cache.replication
    return bed.run(cache.handle_message(
        {"type": "pull", "have_version": have_version}, None))


def test_a_cache_answers_a_downstream_pull_from_its_journal():
    bed = PackageBed(cache_ttl=60.0)
    bed.read()
    start = bed.cache.replication.version
    for index in range(3):  # each pulled on its own, so journalled
        bed.write("addFile", path="f", data=b"%d" % index)
        bed.settle()
        bed.cache.replication.invalidate()
        bed.read()
    cache = bed.cache.replication
    assert cache.version == start + 3
    answer = _pull_the_cache(bed, start)
    assert answer["type"] == "deltas" and answer["version"] == start + 3
    assert answer["deltas"]["files"] == {"f": b"2"}
    assert _pull_the_cache(bed, cache.version)["type"] == "fresh"
    # Further behind than the cache's journal reaches: whole state.
    answer = _pull_the_cache(bed, start - 1)
    assert answer["type"] == "state" and answer["version"] == cache.version


# -- any pushes, any losses ---------------------------------------------------

WRITES = st.one_of(
    st.tuples(st.just("addFile"), st.sampled_from("abc"),
              st.sampled_from([b"v1", b"v2", b"x" * 300])),
    st.tuples(st.just("delFile"), st.sampled_from("abc"), st.none()),
    st.tuples(st.just("setAttribute"), st.sampled_from(["os", "category"]),
              st.sampled_from(["one", "two"])),
    st.just(("restart_slave", None, None)),
    st.just(("read", None, None)))

#: Time after a step: none, fractions of a push's r0 -> r1 flight, or
#: long enough for every late push to land.
GAPS = [0.0, 0.02, 0.05, 0.1, 0.3, 2.0]


def _step(bed, kind, key, value):
    if kind == "addFile":
        bed.write(kind, path=key, data=value)
    elif kind == "delFile":
        bed.write(kind, path=key)
    elif kind == "setAttribute":
        bed.write(kind, key=key, value=value)
    elif kind == "restart_slave":
        bed.restart_slave()
    else:
        bed.read()


class _VersionWatch:
    """Every (epoch, version) one copy moves to, from now on."""

    def __init__(self, lr):
        self.moves = []
        replication = lr.replication
        journal = replication.journal
        for name in ("append", "reset"):
            method = getattr(journal, name)

            def logged(version, *rest, method=method):
                method(version, *rest)
                self.moves.append((replication.epoch, version))

            setattr(journal, name, logged)

    def never_went_back(self):
        return all(a <= b for a, b in zip(self.moves, self.moves[1:]))


def _run_meddled(steps, doomed=(), late=(), doubled=(),
                 journal_depth=JOURNAL_DEPTH, seed=5):
    """``steps`` is a list of (step, gap after it)."""
    with mock.patch.object(journal_module, "JOURNAL_DEPTH", journal_depth):
        bed = PackageBed(seed=seed)
        bed.write("addFile", path="a", data=b"first")
        bed.read()
        meddler = PushMeddler(bed.master.replication, doomed, late, doubled)
        watches = [_VersionWatch(bed.slave), _VersionWatch(bed.cache)]
        for (kind, key, value), gap in steps:
            _step(bed, kind, key, value)
            if kind == "restart_slave":
                watches.append(_VersionWatch(bed.slave))
            bed.settle(gap)
        meddler.stop()
        bed.write("addFile", path="final", data=b"last")
        bed.settle()
        bed.read()
    master = package_contents(bed.master)
    assert package_contents(bed.slave) == master
    assert package_contents(bed.cache) == master
    assert all(watch.never_went_back() for watch in watches)
    return bed


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(st.tuples(WRITES, st.sampled_from(GAPS)),
                      min_size=1, max_size=8),
       doomed=st.sets(st.integers(0, 12), max_size=5),
       late=st.sets(st.integers(0, 12), max_size=5),
       doubled=st.sets(st.integers(0, 12), max_size=5),
       journal_depth=st.sampled_from([1, 2, JOURNAL_DEPTH]),
       seed=st.integers(0, 3))
def test_any_pushes_any_losses_then_one_write_converge(
        steps, doomed, late, doubled, journal_depth, seed):
    _run_meddled(steps, doomed, late, doubled, journal_depth, seed)


def test_overtaken_push_is_not_replayed():
    # The push adding "b" is held back and lands after the one deleting
    # it: replayed on arrival it would put b back.
    bed = _run_meddled([(("addFile", "b", b"v1"), 0.0),
                        (("delFile", "b", None), 2.0)], late={0})
    assert "b" not in bed.slave.semantics._files


def test_lost_pushes_beyond_the_journal_are_made_good_by_whole_state():
    steps = [(("addFile", "c", b"v%d" % index), 0.3) for index in range(4)]
    bed = _run_meddled(steps, doomed={0, 1, 2, 3}, journal_depth=2)
    assert bed.slave.semantics.getFileContents("c") == b"v3"
