"""Unit tests for package version management (§8 future work)."""

import pytest

from repro.gdn.package import HISTORY_RETENTION, PackageSemantics


@pytest.fixture
def package():
    pkg = PackageSemantics()
    pkg.addFile("README", b"version one")
    return pkg


def test_history_records_operations(package):
    package.addFile("README", b"version two")
    package.delFile("README")
    package.setAttribute("category", "docs")
    history = package.getHistory()
    assert [entry["op"] for entry in history] == ["add", "add", "del",
                                                  "attr"]
    assert [entry["version"] for entry in history] == [1, 2, 3, 4]
    assert history[0]["size"] == len(b"version one")
    assert "digest" in history[1]


def test_restore_overwritten_file(package):
    package.addFile("README", b"version two")  # supersedes v1 at v2
    restored_version = package.restoreFile("README", 2)
    assert package.getFileContents("README") == b"version one"
    assert restored_version == 3  # the restore is itself a new version


def test_restore_deleted_file(package):
    package.delFile("README")  # retained under version 2
    assert "README" not in [e["path"] for e in package.listContents()]
    package.restoreFile("README", 2)
    assert package.getFileContents("README") == b"version one"


def test_restore_unknown_version_rejected(package):
    with pytest.raises(KeyError):
        package.restoreFile("README", 99)


def test_retention_is_bounded(package):
    for index in range(HISTORY_RETENTION + 5):
        package.addFile("README", b"v%d" % index)
    # The very first contents have been evicted.
    with pytest.raises(KeyError):
        package.restoreFile("README", 2)
    # Recent ones are still restorable.
    latest_supersede_version = package.snapshot_state()["version"]
    package.restoreFile("README", latest_supersede_version)


def test_history_survives_state_round_trip(package):
    package.addFile("README", b"version two")
    clone = PackageSemantics()
    clone.restore_state(package.snapshot_state())
    assert clone.getHistory() == package.getHistory()
    clone.restoreFile("README", 2)
    assert clone.getFileContents("README") == b"version one"
    # The original is unaffected (deep copy).
    assert package.getFileContents("README") == b"version two"


def test_exactly_the_last_retention_depth_contents_are_kept(package):
    # HISTORY_RETENTION superseding writes: versions 2.. are retained,
    # the first of them still restorable; one more evicts it.
    for index in range(HISTORY_RETENTION):
        package.addFile("README", b"v%d" % index)
    clone = PackageSemantics()
    clone.restore_state(package.snapshot_state())
    for pkg in (package, clone):
        assert pkg.restoreFile("README", 2) > 0
    # The restore superseded one more: the oldest retained goes, in
    # the original and in a copy restored from its snapshot alike.
    for pkg in (package, clone):
        with pytest.raises(KeyError):
            pkg.restoreFile("README", 2)
        pkg.restoreFile("README", 3)
