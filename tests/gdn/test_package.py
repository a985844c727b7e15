"""Unit tests for the package DSO semantics."""

import hashlib

import pytest

from repro.core.idl import Mode
from repro.gdn.package import PackageSemantics


@pytest.fixture
def package():
    pkg = PackageSemantics()
    pkg.addFile("README", b"the gimp graphics package")
    pkg.addFile("bin/gimp", b"\x7fELF" + b"\x00" * 100)
    return pkg


def test_interface_modes():
    interface = PackageSemantics.interface
    assert interface.mode("addFile") == Mode.WRITE
    assert interface.mode("delFile") == Mode.WRITE
    assert interface.mode("listContents") == Mode.READ
    assert interface.mode("getFileContents") == Mode.READ
    assert interface.mode("getFileManifest") == Mode.READ


def test_list_contents_sorted_with_sizes(package):
    contents = package.listContents()
    assert contents == [
        {"path": "README", "size": 25},
        {"path": "bin/gimp", "size": 104},
    ]


def test_get_file_contents(package):
    assert package.getFileContents("README") == b"the gimp graphics package"
    with pytest.raises(KeyError):
        package.getFileContents("missing")


def test_digest_matches_contents(package):
    expected = hashlib.sha256(b"the gimp graphics package").hexdigest()
    assert package.getFileManifest("README")["digest"] == expected


def test_versioning(package):
    def version():
        return package.snapshot_state()["version"]

    v0 = version()
    assert package.addFile("NEWS", b"news") == v0 + 1
    assert package.delFile("NEWS")
    assert version() == v0 + 2
    assert not package.delFile("NEWS")  # no-op delete
    assert version() == v0 + 2


def test_bad_paths_rejected(package):
    with pytest.raises(ValueError):
        package.addFile("/absolute", b"x")
    with pytest.raises(ValueError):
        package.addFile("", b"x")
    with pytest.raises(ValueError):
        package.addFile("notbytes", "string")


def test_attributes(package):
    package.setAttribute("category", "graphics")
    assert package.snapshot_state()["attributes"] == {"category": "graphics"}
    assert package.getHistory()[-1] == {"version": 3, "op": "attr",
                                        "path": "category"}


def test_state_round_trip(package):
    package.setAttribute("category", "graphics")
    state = package.snapshot_state()
    restored = PackageSemantics()
    restored.restore_state(state)
    assert restored.snapshot_state() == state
    # The snapshot is a copy, not a view.
    restored.addFile("extra", b"x")
    restored.setAttribute("category", "other")
    assert package.snapshot_state() == state
    assert len(package.listContents()) == 2


def test_a_change_set_names_each_path_once():
    pkg = PackageSemantics()
    pkg.addFile("a", b"1")
    pkg.delFile("a")
    assert pkg.take_changes() == {"version": 2, "history": pkg._history,
                                  "deleted": ["a"]}
    pkg.addFile("b", b"1")
    pkg.take_changes()
    pkg.delFile("b")
    pkg.addFile("b", b"2")
    changes = pkg.take_changes()
    assert (changes["files"], "deleted" in changes) == ({"b": b"2"}, False)


def test_the_manifest_memo_keeps_no_deleted_contents(package):
    # The memo holds the contents it hashed: a path that goes takes
    # its entry along, however it goes.
    copy = PackageSemantics()
    copy.restore_state(package.snapshot_state())
    for pkg in (package, copy):
        pkg.getFileManifest("README")
        assert "README" in pkg._manifests
    package.delFile("README")
    assert "README" not in package._manifests
    copy.apply_changes(package.take_changes())
    assert "README" not in copy._manifests
    copy.getFileManifest("bin/gimp")
    copy.restore_state(PackageSemantics().snapshot_state())
    assert copy._manifests == {}
