"""The package op log is kept packed: one ``bytes`` of concatenated
entry encodings, decoded only by ``getHistory``."""

import pytest

from repro.core.marshal import MarshalError, pack, unpack, unpack_sequence
from repro.gdn.package import PackageSemantics
from tests.core import marshal_oracle as oracle


def _package(writes):
    package = PackageSemantics()
    for index in range(writes):
        if index % 3 == 2:
            package.setAttribute("note", "n%d" % index)
        else:
            package.addFile("f%d" % (index % 4), b"v%d" % index)
    return package


def test_history_is_packed_bytes_and_decoded_on_read():
    package = _package(5)
    state = package.snapshot_state()
    assert isinstance(state["history"], bytes)
    assert state["history"] == b"".join(
        pack(entry) for entry in package.getHistory())
    assert [entry["version"] for entry in package.getHistory()] == \
        [1, 2, 3, 4, 5]
    assert isinstance(package.replication_state()["history"], bytes)


@pytest.mark.parametrize("writes", [0, 1, 100])
def test_packed_state_is_as_long_as_the_list_encoding(writes):
    """``B`` + u32 length has as many header bytes as ``L`` + u32
    count, so every message and record carrying the state keeps its
    size."""
    package = _package(writes)
    state = package.snapshot_state()
    as_list = dict(state, history=unpack_sequence(state["history"]))
    assert len(as_list["history"]) == writes
    assert len(pack(state)) == len(oracle.pack(as_list))
    replicated = package.replication_state()
    assert len(pack(replicated)) == len(oracle.pack(
        dict(replicated, history=as_list["history"])))


def test_restore_takes_the_log_back_as_it_was_shipped():
    package = _package(7)
    clone = PackageSemantics()
    clone.restore_state(unpack(pack(package.replication_state())))
    assert clone.snapshot_state()["history"] == \
        package.snapshot_state()["history"]
    assert clone.getHistory() == package.getHistory()
    clone.addFile("f0", b"later")
    assert len(clone.getHistory()) == 8
    assert len(package.getHistory()) == 7


@pytest.mark.parametrize("log", [[], [{"version": 1, "op": "add"}],
                                 bytearray(b""), "", None])
def test_restore_refuses_a_log_that_is_not_bytes(log):
    package = _package(2)
    state = dict(package.snapshot_state(), history=log)
    with pytest.raises(TypeError):
        package.restore_state(state)
    assert len(package.getHistory()) == 2  # left as it was


def test_truncated_log_fails_history_reads_only():
    package = _package(4)
    state = package.snapshot_state()
    state["history"] = state["history"][:-3]
    package.restore_state(state)
    with pytest.raises(MarshalError):
        package.getHistory()
    assert package.getVersion() == 4
    assert package.getFileContents("f0") == b"v0"
