"""Chunked-transfer tests: manifests, endpoints, downloader semantics."""

import hashlib

import pytest

from repro.gdn import package as package_module
from repro.gdn.browser import HttpResponse
from repro.gdn.deployment import GdnDeployment, standard_spec
from repro.gdn.httpd import parse_transfer_url
from repro.gdn.package import DEFAULT_CHUNK_SIZE, PackageSemantics
from repro.gdn.scenario import ReplicationScenario
from repro.gdn.transfer import (TRANSFER_WINDOW, ChunkedDownloader,
                                IntegrityError, ResumeToken,
                                TransferBudgetExhausted, TransferError)
from repro.sim.deadlines import shared_pool
from repro.sim.failures import FailureInjector
from repro.sim.retry import ExponentialBackoff, RetryBudget

PAYLOAD = bytes(range(256)) * 120  # 30720 bytes
SMALL = b"tiny file"
#: One city of two sites and nothing placed: a world for stub browsers.
BARE = {"topology": [1, 1, 1, 2], "seed": 1, "secure": False}


# -- PackageSemantics manifest/chunk methods ---------------------------------


def _package():
    pkg = PackageSemantics()
    pkg.addFile("big.bin", PAYLOAD)
    pkg.addFile("tiny.txt", SMALL)
    pkg.addFile("empty", b"")
    return pkg


def test_manifest_covers_file_exactly():
    pkg = _package()
    manifest = pkg.getFileManifest("big.bin", chunk_size=1000)
    assert manifest["size"] == len(PAYLOAD)
    assert manifest["chunk_count"] == 31  # 30*1000 + 720
    assert len(manifest["chunk_digests"]) == 31
    assert manifest["digest"] == hashlib.sha256(PAYLOAD).hexdigest()
    joined = b"".join(pkg.getFileChunk("big.bin", i, chunk_size=1000)
                      for i in range(manifest["chunk_count"]))
    assert joined == PAYLOAD
    for i in range(manifest["chunk_count"]):
        chunk = pkg.getFileChunk("big.bin", i, chunk_size=1000)
        assert (hashlib.sha256(chunk).hexdigest()
                == manifest["chunk_digests"][i])


def test_manifest_default_chunk_size():
    pkg = _package()
    manifest = pkg.getFileManifest("big.bin")
    assert manifest["chunk_size"] == DEFAULT_CHUNK_SIZE
    assert manifest["chunk_count"] == -(-len(PAYLOAD) // DEFAULT_CHUNK_SIZE)


def test_empty_file_has_one_empty_chunk():
    pkg = _package()
    manifest = pkg.getFileManifest("empty", chunk_size=100)
    assert manifest["chunk_count"] == 1
    assert pkg.getFileChunk("empty", 0, chunk_size=100) == b""


def test_chunk_index_and_size_validation():
    pkg = _package()
    with pytest.raises(IndexError):
        pkg.getFileChunk("tiny.txt", 5, chunk_size=100)
    with pytest.raises(IndexError):
        pkg.getFileChunk("tiny.txt", -1, chunk_size=100)
    with pytest.raises(ValueError):
        pkg.getFileManifest("tiny.txt", chunk_size=0)
    with pytest.raises(KeyError):
        pkg.getFileManifest("missing")


class _CountingHashlib:
    """Stands in for ``hashlib`` in the package module; counts the
    ``sha256`` objects it makes."""

    def __init__(self):
        self.calls = 0

    def sha256(self, data=b""):
        self.calls += 1
        return hashlib.sha256(data)


@pytest.fixture
def hashes(monkeypatch):
    counting = _CountingHashlib()
    monkeypatch.setattr(package_module, "hashlib", counting)
    return counting


def _fresh_manifest(path, data, chunk_size):
    """The manifest of ``data`` from a package that never held
    anything else, without its content version."""
    pkg = PackageSemantics()
    pkg.addFile(path, data)
    manifest = pkg.getFileManifest(path, chunk_size)
    del manifest["version"]
    return manifest


def test_an_unchanged_file_is_hashed_once(hashes):
    pkg = _package()
    hashes.calls = 0
    first = pkg.getFileManifest("big.bin", chunk_size=1000)
    assert hashes.calls == 31 + 1  # each chunk, then the whole file
    hashes.calls = 0
    assert pkg.getFileManifest("big.bin", chunk_size=1000) == first
    assert hashes.calls == 0


def _replace(pkg):
    pkg.addFile("big.bin", PAYLOAD[::-1])


def _restore(pkg):
    version = pkg.addFile("big.bin", PAYLOAD[::-1])
    pkg.getFileManifest("big.bin", 1000)
    pkg.restoreFile("big.bin", version)


def _delete_and_add(pkg):
    pkg.delFile("big.bin")
    pkg.addFile("big.bin", PAYLOAD[:5000])


def _restore_state(pkg):
    other = PackageSemantics()
    other.addFile("big.bin", PAYLOAD[1:])
    pkg.restore_state(other.snapshot_state())


def _apply_changes(pkg):
    other = PackageSemantics()
    other.restore_state(pkg.snapshot_state())
    other.take_changes()
    other.addFile("big.bin", PAYLOAD * 2)
    pkg.apply_changes(other.take_changes())


@pytest.mark.parametrize("change", [
    _replace, _restore, _delete_and_add, _restore_state, _apply_changes],
    ids=["add", "restore", "delete-then-add", "restore-state",
         "apply-changes"])
def test_a_changed_file_gets_the_manifest_of_its_new_contents(change):
    pkg = _package()
    pkg.getFileManifest("big.bin", 1000)
    change(pkg)
    manifest = pkg.getFileManifest("big.bin", 1000)
    assert manifest["version"] == pkg.getVersion()
    del manifest["version"]
    assert manifest == _fresh_manifest(
        "big.bin", pkg.getFileContents("big.bin"), 1000)


def test_another_chunk_size_recomputes(hashes):
    pkg = _package()
    pkg.getFileManifest("big.bin", 1000)
    hashes.calls = 0
    manifest = pkg.getFileManifest("big.bin", 4096)
    assert hashes.calls == 8 + 1
    del manifest["version"]
    assert manifest == _fresh_manifest("big.bin", PAYLOAD, 4096)


def test_a_returned_manifest_is_the_callers_own():
    pkg = _package()
    first = pkg.getFileManifest("big.bin", 1000)
    digests = list(first["chunk_digests"])
    first["chunk_digests"][0] = "0" * 64
    first["chunk_digests"].append("extra")
    first["digest"] = "changed"
    second = pkg.getFileManifest("big.bin", 1000)
    assert second["chunk_digests"] == digests
    assert second["digest"] == hashlib.sha256(PAYLOAD).hexdigest()
    assert second["chunk_digests"] is not first["chunk_digests"]


def test_the_memo_is_not_state():
    pkg = _package()
    snapshot, replicated = pkg.snapshot_state(), pkg.replication_state()
    pkg.getFileManifest("big.bin", 1000)
    pkg.getFileManifest("tiny.txt")
    assert pkg.snapshot_state() == snapshot
    assert pkg.replication_state() == replicated
    assert set(snapshot) == {"files", "attributes", "version", "history",
                             "retained", "retained_order"}


# -- URL parsing -------------------------------------------------------------


def test_parse_transfer_url_forms():
    assert parse_transfer_url("/gdn/apps/Gimp/manifest/bin/gimp") == \
        ("manifest", "/apps/Gimp", "bin/gimp", None, None)
    assert parse_transfer_url(
        "/gdn/apps/Gimp/chunk/3/bin/gimp?chunk_size=512") == \
        ("chunk", "/apps/Gimp", "bin/gimp", 3, 512)
    assert parse_transfer_url("/gdn/apps/Gimp/files/bin/gimp") is None
    assert parse_transfer_url("/gdn/apps/Gimp") is None
    assert parse_transfer_url("/other") is None
    with pytest.raises(ValueError):
        parse_transfer_url("/gdn/apps/Gimp/chunk/x/bin/gimp")
    with pytest.raises(ValueError):
        parse_transfer_url("/gdn/apps/Gimp/manifest/")
    with pytest.raises(ValueError):
        parse_transfer_url("/gdn/apps/Gimp/chunk/3/f?chunk_size=abc")


def test_first_route_marker_decides_what_a_url_is():
    # A file path may itself contain a directory called manifest or
    # chunk (or files): only the marker that comes first routes.
    assert parse_transfer_url(
        "/gdn/apps/Gimp/files/docs/manifest/readme.txt") is None
    assert parse_transfer_url("/gdn/apps/Gimp/files/src/chunk/io.c") is None
    assert parse_transfer_url("/gdn/apps/Gimp/manifest/files/x") == \
        ("manifest", "/apps/Gimp", "files/x", None, None)
    assert parse_transfer_url("/gdn/apps/Gimp/chunk/2/docs/manifest/r") == \
        ("chunk", "/apps/Gimp", "docs/manifest/r", 2, None)
    assert parse_transfer_url("/gdn/apps/Gimp/manifest/a/chunk/1/b") == \
        ("manifest", "/apps/Gimp", "a/chunk/1/b", None, None)
    # A marker in the query string is not part of the path.
    assert parse_transfer_url("/gdn/apps/Gimp?next=/manifest/x") is None


# -- ChunkedDownloader end to end -------------------------------------------


@pytest.fixture(scope="module")
def gdn():
    deployment = GdnDeployment.from_spec({
        **standard_spec(2, 2, 1, 2), "seed": 11, "secure": False,
        "moderators": {"mod": "r0/c0/m0/s1"}})
    moderator = deployment.moderators["mod"]
    deployment.run(moderator.create_package(
        "/apps/Big", {"big.bin": PAYLOAD},
        ReplicationScenario.master_slave("gos-r0-0", ["gos-r1-0"],
                                         cache_ttl=300.0)),
        host=moderator.host)
    deployment.settle(5.0)
    return deployment


def test_clean_download_round_trip(gdn):
    browser = gdn.add_browser("dl-user", "r1/c0/m0/s1")
    downloader = gdn.chunked_downloader(chunk_size=4096)
    checkpoints = []

    def run():
        data, token = yield from downloader.download(
            browser, "/apps/Big", "big.bin",
            checkpoint=lambda t: checkpoints.append(t.to_wire()))
        return data, token

    data, token = gdn.run(run(), host=browser.host)
    assert data == PAYLOAD
    count = -(-len(PAYLOAD) // 4096)
    assert downloader.chunks_ok == count
    assert downloader.chunks_retried == 0
    assert downloader.transfers_completed == 1
    assert downloader.duplicate_applications == 0
    assert downloader.refetch_ratio() == 0.0
    # The manifest, then each reply (a block of chunks) once.
    assert len(checkpoints) == 1 + -(-count // TRANSFER_WINDOW)
    snapshot = gdn.world.metrics.snapshot()
    assert snapshot["transfer.chunks_ok"] == count
    assert snapshot["transfer.inflight_transfers"] == 0


def test_file_paths_containing_route_words_are_served(gdn):
    """Regression: ``/manifest/`` or ``/chunk/`` *inside* a file path
    used to hijack a plain GET (404 "unknown package" / "bad transfer
    URL"); such files must also stay reachable by chunked transfer."""
    moderator = gdn.moderators["mod"]
    files = {"docs/manifest/readme.txt": b"read me",
             "src/chunk/io.c": b"int io;" * 900}

    gdn.run(moderator.create_package(
        "/apps/Gimp", files, ReplicationScenario.single_server("gos-r0-0")),
        host=moderator.host)
    gdn.settle(5.0)
    browser = gdn.add_browser("route-user", "r1/c0/m0/s1")
    downloader = ChunkedDownloader(gdn.world, chunk_size=2048)

    def run():
        plain = {}
        for path in files:
            plain[path] = yield from browser.get(
                "/gdn/apps/Gimp/files/" + path)
        chunked, _token = yield from downloader.download(
            browser, "/apps/Gimp", "src/chunk/io.c")
        return plain, chunked

    plain, chunked = gdn.run(run(), host=browser.host)
    for path, content in files.items():
        assert plain[path].status == 200, plain[path].body
        assert plain[path].body == content
    assert chunked == files["src/chunk/io.c"]


def test_resume_token_round_trips_through_wire_format(gdn):
    browser = gdn.add_browser("dl-wire", "r1/c0/m0/s1")
    downloader = ChunkedDownloader(gdn.world, chunk_size=4096)
    saved = []

    def run():
        yield from downloader.download(
            browser, "/apps/Big", "big.bin",
            checkpoint=lambda t: saved.append(t.to_wire()))

    gdn.run(run(), host=browser.host)
    # The first checkpoint taken mid-transfer (after the first block)
    # resumes to completion.
    token = ResumeToken.from_wire(saved[1])
    assert len(token.chunks) == TRANSFER_WINDOW
    resumer = ChunkedDownloader(gdn.world, chunk_size=4096)
    browser2 = gdn.add_browser("dl-wire-2", "r1/c0/m0/s1")

    def resume():
        data, _ = yield from resumer.download(
            browser2, "/apps/Big", "big.bin", token=token)
        return data

    assert gdn.run(resume(), host=browser2.host) == PAYLOAD
    assert resumer.resumes == 1
    # Verified chunks were skipped, not re-fetched.
    assert resumer.chunks_ok == -(-len(PAYLOAD) // 4096) - TRANSFER_WINDOW
    assert resumer.bytes_refetched == 0


def test_resume_token_wire_copies_chunks_and_loads_str_keys():
    token = ResumeToken("/apps/Big", "big.bin", 4)
    token.manifest = {"chunk_count": 2}
    token.chunks = {0: b"abcd", 1: b"ef"}
    token.fetched_ever = {0, 1}
    wire = token.to_wire()
    token.chunks[2] = b"later"  # progress after the checkpoint
    assert wire["chunks"] == {0: b"abcd", 1: b"ef"}
    assert ResumeToken.from_wire(wire).chunks == {0: b"abcd", 1: b"ef"}
    # A wire written with str keys (as JSON would) still loads.
    wire["chunks"] = {"0": b"abcd", "1": b"ef"}
    loaded = ResumeToken.from_wire(wire)
    assert loaded.chunks == {0: b"abcd", 1: b"ef"}
    assert loaded.fetched_ever == {0, 1} and loaded.complete


def test_no_resume_with_tight_budget_exhausts(gdn):
    # A token whose chunks were all fetched once before: resume=False
    # discards the verified progress, so every chunk is a re-fetch —
    # and a two-token budget denies the third.
    browser = gdn.add_browser("dl-budget", "r1/c0/m0/s1")
    seeded = ChunkedDownloader(gdn.world, chunk_size=4096)
    saved = []

    gdn.run(seeded.download(browser, "/apps/Big", "big.bin",
                            checkpoint=lambda t: saved.append(t.to_wire())),
            host=browser.host)
    token = ResumeToken.from_wire(saved[-1])
    no_resume = ChunkedDownloader(
        gdn.world, resume=False, chunk_size=4096,
        budget=RetryBudget(rate=0.0, burst=2.0))

    def restart():
        try:
            yield from no_resume.download(browser, "/apps/Big", "big.bin",
                                          token=token)
        except TransferBudgetExhausted:
            return "exhausted"

    assert gdn.run(restart(), host=browser.host) == "exhausted"
    assert no_resume.budget_exhausted == 1
    assert no_resume.transfers_failed == 1
    # Only the budgeted re-fetches happened before the denial.
    assert no_resume.bytes_refetched == 2 * 4096
    # The same restart with resume=True costs the budget nothing.
    with_resume = ChunkedDownloader(
        gdn.world, resume=True, chunk_size=4096,
        budget=RetryBudget(rate=0.0, burst=2.0))
    token2 = ResumeToken.from_wire(saved[-1])

    def finish():
        data, _ = yield from with_resume.download(
            browser, "/apps/Big", "big.bin", token=token2)
        return data

    assert gdn.run(finish(), host=browser.host) == PAYLOAD
    assert with_resume.budget_exhausted == 0


def test_corrupted_chunk_digest_raises_integrity_error(gdn):
    browser = gdn.add_browser("dl-corrupt", "r1/c0/m0/s1")
    downloader = ChunkedDownloader(
        gdn.world,
        policy=ExponentialBackoff(timeout=3.0, retries=2, base=0.05,
                                  jitter=0.0),
        chunk_size=4096)
    token = ResumeToken("/apps/Big", "big.bin", 4096)

    def run():
        try:
            yield from downloader.download(browser, "/apps/Big", "big.bin",
                                           token=token)
        except IntegrityError:
            return "integrity"

    # Fetch the real manifest first, then corrupt one chunk digest so
    # every arriving copy of chunk 0 fails verification.
    gdn.run(downloader.download(browser, "/apps/Big", "big.bin",
                                token=token, checkpoint=lambda t: None),
            host=browser.host)
    token.chunks.clear()
    token.manifest["chunk_digests"][0] = "0" * 64
    assert gdn.run(run(), host=browser.host) == "integrity"
    assert downloader.integrity_failures >= downloader.policy.attempts


def test_missing_file_is_fatal_without_retries(gdn):
    browser = gdn.add_browser("dl-404", "r1/c0/m0/s1")
    downloader = ChunkedDownloader(gdn.world, chunk_size=4096)

    def run():
        try:
            yield from downloader.download(browser, "/apps/Big",
                                           "no-such-file")
        except TransferError as exc:
            return str(exc)

    message = gdn.run(run(), host=browser.host)
    assert "404" in message
    assert downloader.chunks_retried == 0
    assert downloader.transfers_failed == 1


def test_token_object_mismatch_rejected(gdn):
    browser = gdn.add_browser("dl-mismatch", "r1/c0/m0/s1")
    downloader = ChunkedDownloader(gdn.world)
    token = ResumeToken("/apps/Other", "big.bin")

    def run():
        try:
            yield from downloader.download(browser, "/apps/Big", "big.bin",
                                           token=token)
        except TransferError:
            return "rejected"

    assert gdn.run(run(), host=browser.host) == "rejected"


def test_downloader_defaults_are_a_jittered_backoff():
    downloader = ChunkedDownloader(GdnDeployment.from_spec(BARE).world)
    assert isinstance(downloader.policy, ExponentialBackoff)
    assert downloader.policy.jitter > 0.0


# -- malformed manifests -----------------------------------------------------


class _StubBrowser:
    """Answers every GET with 200: ``manifest`` for a manifest URL,
    ``b"abcd"`` for a chunk."""

    def __init__(self, host, manifest):
        self.host = host
        self.manifest = manifest

    def get(self, path, timeout=None):
        yield from ()
        body = self.manifest if "/manifest/" in path else b"abcd"
        return HttpResponse(200, body, {}, 0.0)


def _digest(data):
    return hashlib.sha256(data).hexdigest()


MALFORMED_MANIFESTS = [
    # Digests for fewer chunks than it counts.
    {"chunk_count": 2, "chunk_size": 4, "chunk_digests": [_digest(b"abcd")],
     "digest": _digest(b"abcd" * 2)},
    # No count at all.
    {"chunk_size": 4, "chunk_digests": [_digest(b"abcd")],
     "digest": _digest(b"abcd")},
    # A count that is no int.
    {"chunk_count": "1", "chunk_size": 4,
     "chunk_digests": [_digest(b"abcd")], "digest": _digest(b"abcd")},
    {"chunk_count": 1, "chunk_size": 0,
     "chunk_digests": [_digest(b"abcd")], "digest": _digest(b"abcd")},
    {"chunk_count": 1, "chunk_size": 4,
     "chunk_digests": [_digest(b"abcd")], "digest": None},
    ["not", "a", "manifest"],
]
MALFORMED_IDS = ["short-digests", "no-count", "str-count", "zero-size",
                 "no-digest", "not-a-dict"]


def _download_error(manifest, token=None):
    """What downloading through a :class:`_StubBrowser` serving
    ``manifest`` raises; returns (error, downloader)."""
    gdn = GdnDeployment.from_spec(BARE)
    browser = _StubBrowser(gdn.world.host("stub", "r0/c0/m0/s0"), manifest)
    downloader = ChunkedDownloader(gdn.world)

    def run():
        try:
            yield from downloader.download(browser, "/apps/Stub", "f",
                                           token=token)
        except TransferError as exc:
            return exc

    return gdn.run(run()), downloader


@pytest.mark.parametrize("manifest", MALFORMED_MANIFESTS, ids=MALFORMED_IDS)
def test_malformed_manifest_is_a_transfer_error(manifest):
    error, downloader = _download_error(manifest)
    assert type(error) is TransferError and "malformed" in str(error)
    assert downloader.chunks_ok == 0


@pytest.mark.parametrize("manifest", MALFORMED_MANIFESTS, ids=MALFORMED_IDS)
def test_a_resumed_malformed_manifest_is_a_transfer_error(manifest):
    # A token handed back to resume is checked as a fetched manifest is,
    # instead of failing later on a missing key or a short digest list.
    token = ResumeToken("/apps/Stub", "f")
    token.manifest = manifest
    error, downloader = _download_error(manifest, token)
    assert type(error) is TransferError and "malformed" in str(error)
    assert downloader.chunks_ok == 0


# -- block fetches over a wide-area link -------------------------------------

WAN_CHUNK = 2048
WAN_CHUNKS = 48
WAN_PAYLOAD = bytes(range(256)) * (WAN_CHUNK * WAN_CHUNKS // 256)
#: The access point is in region r0 and the clients in r1: every chunk
#: request crosses the WORLD link.
CLIENT_SITE = "r1/c0/m0/s0"


def _wan_deployment():
    gdn = GdnDeployment.from_spec({
        "topology": [2, 1, 1, 2], "seed": 5, "secure": False,
        "gos": {"gos-0": "r0/c0/m0/s0"},
        "httpds": {"ap": {"site": "r0/c0/m0/s1", "cache_ttl": None}},
        "moderators": {"mod": "r0/c0/m0/s1"}})
    moderator = gdn.moderators["mod"]
    gdn.run(moderator.create_package(
        "/apps/Wan", {"big.bin": WAN_PAYLOAD},
        ReplicationScenario.single_server("gos-0", cache_ttl=None)),
        host=moderator.host)
    gdn.settle(2.0)
    return gdn


def _channel(browser):
    (channel,) = browser._pool._channels.values()
    return channel


def test_fault_free_transfer_keeps_the_window_full():
    gdn = _wan_deployment()
    browser = gdn.add_browser("pipe-user", CLIENT_SITE)
    budget = RetryBudget(rate=0.0, burst=4.0)
    downloader = ChunkedDownloader(gdn.world, budget=budget,
                                   chunk_size=WAN_CHUNK)
    url = "/gdn/apps/Wan/chunk/0/big.bin?chunk_size=%d" % WAN_CHUNK

    def run():
        yield from browser.get(url)  # opens the channel
        round_trip = (yield from browser.get(url)).elapsed
        before, start = browser.requests_made, gdn.world.now
        data, _token = yield from downloader.download(
            browser, "/apps/Wan", "big.bin")
        return (data, round_trip, gdn.world.now - start,
                browser.requests_made - before)

    data, round_trip, took, gets = gdn.run(run(), host=browser.host)
    assert data == WAN_PAYLOAD
    assert round_trip > 0.25  # twice the WORLD latency
    # The manifest, then each block of TRANSFER_WINDOW chunks once.
    assert gets == 1 + -(-WAN_CHUNKS // TRANSFER_WINDOW)
    assert budget.granted == budget.denied == 0
    assert downloader.chunks_retried == downloader.manifest_retries == 0
    assert took <= (-(-WAN_CHUNKS // TRANSFER_WINDOW) + 2) * round_trip


def _record_gets(browser):
    """The paths ``browser`` GETs from now on, in order."""
    paths = []
    get = browser.get

    def recording(path, timeout=None):
        paths.append(path)
        response = yield from get(path, timeout)
        return response

    browser.get = recording
    return paths


def test_a_resume_mid_block_fetches_to_the_boundary_then_blocks():
    gdn = _wan_deployment()
    browser = gdn.add_browser("resume-user", CLIENT_SITE)
    saved = []
    gdn.run(ChunkedDownloader(gdn.world, chunk_size=WAN_CHUNK).download(
        browser, "/apps/Wan", "big.bin",
        checkpoint=lambda t: saved.append(t.to_wire())), host=browser.host)
    token = ResumeToken.from_wire(saved[0])  # the manifest alone
    token.chunks = {index: WAN_PAYLOAD[index * WAN_CHUNK:
                                       (index + 1) * WAN_CHUNK]
                    for index in range(6)}
    token.fetched_ever = set(token.chunks)
    budget = RetryBudget(rate=0.0, burst=4.0)
    downloader = ChunkedDownloader(gdn.world, budget=budget,
                                   chunk_size=WAN_CHUNK)
    paths = _record_gets(browser)

    def resume():
        data, _token = yield from downloader.download(
            browser, "/apps/Wan", "big.bin", token=token)
        return data

    assert gdn.run(resume(), host=browser.host) == WAN_PAYLOAD
    block = WAN_CHUNK * TRANSFER_WINDOW
    assert paths == (
        ["/gdn/apps/Wan/chunk/%d/big.bin?chunk_size=%d" % (index, WAN_CHUNK)
         for index in (6, 7)]
        + ["/gdn/apps/Wan/chunk/%d/big.bin?chunk_size=%d" % (index, block)
           for index in range(2, WAN_CHUNKS // TRANSFER_WINDOW)])
    assert len(paths) == 2 + 10
    assert budget.granted == 0 and downloader.bytes_refetched == 0
    assert downloader.resumes == 1 and downloader.chunks_ok == 42


class _FileBrowser:
    """Serves one file, ``/apps/Stub`` ``f``, through the package DSO's
    manifest and chunk methods; ``doctor`` maps a path to what its
    first reply's body becomes.  Records the paths it is asked for."""

    def __init__(self, host, payload, doctor=None):
        self.host = host
        self.package = PackageSemantics()
        self.package.addFile("f", payload)
        self.doctor = dict(doctor or {})
        self.paths = []

    def get(self, path, timeout=None):
        yield from ()
        self.paths.append(path)
        kind, _name, file_path, index, chunk_size = parse_transfer_url(path)
        if kind == "manifest":
            body = self.package.getFileManifest(file_path, chunk_size)
        else:
            body = self.package.getFileChunk(file_path, index, chunk_size)
        if path in self.doctor:
            body = self.doctor.pop(path)(body)
        return HttpResponse(200, body, {}, 0.0)


def _stub_download(payload, doctor=None):
    """Download ``payload`` in 4-byte chunks through a
    :class:`_FileBrowser`; returns (downloader, budget, browser, which
    chunks each checkpoint held, and for every GET the chunks the last
    checkpoint held and the chunks applied by then)."""
    gdn = GdnDeployment.from_spec(BARE)
    browser = _FileBrowser(gdn.world.host("stub", "r0/c0/m0/s0"), payload,
                           doctor)
    budget = RetryBudget(rate=0.0, burst=4.0)
    downloader = ChunkedDownloader(gdn.world, budget=budget, chunk_size=4)
    token = ResumeToken("/apps/Stub", "f", 4)
    held = []
    at_gets = []
    get = browser.get

    def noting_progress(path, timeout=None):
        at_gets.append((held[-1] if held else [], sorted(token.chunks)))
        response = yield from get(path, timeout)
        return response

    browser.get = noting_progress

    def run():
        data, _token = yield from downloader.download(
            browser, "/apps/Stub", "f", token=token,
            checkpoint=lambda t: held.append(sorted(t.chunks)))
        return data

    assert gdn.run(run()) == payload
    return downloader, budget, browser, held, at_gets


def _stub_path(index, width):
    return "/gdn/apps/Stub/chunk/%d/f?chunk_size=%d" % (index, 4 * width)


STUB_PAYLOAD = bytes(range(32))  # eight 4-byte chunks, two blocks


def _corrupt_piece_2(body):
    return body[:8] + b"XXXX" + body[12:]


def _cut_after_piece_1(body):
    return body[:8]


def _garble(body):
    return b"X" * len(body)


def test_a_corrupt_piece_of_a_block_is_refetched_alone():
    first = _stub_path(0, TRANSFER_WINDOW)
    downloader, budget, browser, held, _at_gets = _stub_download(
        STUB_PAYLOAD, doctor={first: _corrupt_piece_2})
    assert browser.paths[1:] == [first, _stub_path(2, 1),
                                 _stub_path(1, TRANSFER_WINDOW)]
    assert downloader.integrity_failures == 1
    assert budget.granted == 1 and downloader.bytes_refetched == 4
    # Applied in index order, each once.  After the manifest, one
    # checkpoint per reply: the pieces before the corrupt one (before
    # its re-fetch waits), the re-fetched piece, the rest of the
    # block, the next block.
    assert held == [[], [0, 1], [0, 1, 2], [0, 1, 2, 3],
                    list(range(8))]
    assert downloader.duplicate_applications == 0


def test_a_short_block_reply_refetches_only_what_it_does_not_cover():
    first = _stub_path(0, TRANSFER_WINDOW)
    downloader, budget, browser, held, _at_gets = _stub_download(
        STUB_PAYLOAD, doctor={first: _cut_after_piece_1})
    assert browser.paths[1:] == [first, _stub_path(2, 1), _stub_path(3, 1),
                                 _stub_path(1, TRANSFER_WINDOW)]
    assert budget.granted == 0 and downloader.bytes_refetched == 0
    assert downloader.integrity_failures == 0
    # The covered pieces, then each re-fetched piece, then the block.
    assert held == [[], [0, 1], [0, 1, 2], [0, 1, 2, 3],
                    list(range(8))]


@pytest.mark.parametrize("doctor", [
    {},
    {_stub_path(0, TRANSFER_WINDOW): _corrupt_piece_2},
    {_stub_path(0, TRANSFER_WINDOW): _corrupt_piece_2,
     _stub_path(2, 1): _garble},
    {_stub_path(0, TRANSFER_WINDOW): _cut_after_piece_1},
], ids=["clean", "corrupt-piece", "corrupt-refetch", "short-reply"])
def test_every_get_finds_the_chunks_applied_so_far_checkpointed(doctor):
    """The checkpoint contract: whenever the transfer waits on a GET,
    the last checkpoint holds exactly the chunks applied so far, so a
    crash there loses nothing verified."""
    downloader, _budget, browser, held, at_gets = _stub_download(
        STUB_PAYLOAD, doctor)
    assert len(at_gets) == len(browser.paths)
    assert [saved for saved, _applied in at_gets] == \
        [applied for _saved, applied in at_gets]
    assert held[-1] == list(range(8))  # and at the end
    assert len(held) == len(set(map(tuple, held)))  # none twice
    assert downloader.duplicate_applications == 0


def test_a_file_ends_with_a_short_block():
    payload = bytes(range(200))  # 50 chunks: twelve blocks, then two
    downloader, budget, browser, _held, _at_gets = _stub_download(payload)
    assert browser.paths[1:] == [_stub_path(index, TRANSFER_WINDOW)
                                 for index in range(13)]
    assert downloader.chunks_ok == 50
    assert budget.granted == 0 and downloader.integrity_failures == 0


def test_manifest_retries_are_counted():
    gdn = _wan_deployment()
    browser = gdn.add_browser("manifest-user", CLIENT_SITE)
    downloader = ChunkedDownloader(
        gdn.world, chunk_size=WAN_CHUNK,
        policy=ExponentialBackoff(timeout=1.0, retries=4, base=0.5,
                                  jitter=0.0))
    downloader.bind_metrics(gdn.world.metrics, "manifest-xfer")
    # The client's site is cut off as the transfer starts: the manifest
    # request is lost and retried until the site heals.
    FailureInjector(gdn.world).partition_domain(
        gdn.world.topology.site(CLIENT_SITE), gdn.world.now, 2.5)

    def run():
        data, _token = yield from downloader.download(
            browser, "/apps/Wan", "big.bin")
        return data

    assert gdn.run(run(), host=browser.host) == WAN_PAYLOAD
    assert downloader.manifest_retries > 0
    assert downloader.chunks_retried == 0
    snapshot = gdn.world.metrics.snapshot()
    assert snapshot["manifest-xfer.manifest_retries"] \
        == downloader.manifest_retries


def _abort(gdn, browser, how):
    """Start a transfer and end it ``how`` while chunk requests are in
    flight; returns (downloader, channel, what the abort left)."""
    world = gdn.world
    token = None
    budget = None
    if how in ("budget", "error"):
        # The real manifest, then a doctored copy of it.
        seeded = []
        gdn.run(ChunkedDownloader(world, chunk_size=WAN_CHUNK).download(
            browser, "/apps/Wan", "big.bin",
            checkpoint=lambda t: seeded.append(t.to_wire())),
            host=browser.host)
        token = ResumeToken.from_wire(seeded[0])
        assert token.manifest is not None and not token.chunks
        if how == "budget":
            # Chunk 0 never verifies, and the budget cannot pay for
            # its re-fetch.
            token.manifest["chunk_digests"][0] = "0" * 64
            budget = RetryBudget(rate=0.0, burst=0.5)
        else:
            # Four chunks past the end of the file: the first of them
            # is a 404, the others are still on their way.
            count = token.manifest["chunk_count"]
            token.manifest["chunk_count"] = count + 4
            token.manifest["chunk_digests"] += ["0" * 64] * 4
            token.chunks = {index: WAN_PAYLOAD[index * WAN_CHUNK:
                                               (index + 1) * WAN_CHUNK]
                            for index in range(count - 1)}
    downloader = ChunkedDownloader(world, budget=budget,
                                   chunk_size=WAN_CHUNK)
    seen = {}

    def transfer():
        try:
            yield from downloader.download(browser, "/apps/Wan", "big.bin",
                                           token=token)
        except TransferError as exc:
            seen["error"] = exc
            seen["pending"] = len(_channel(browser)._pending)
            seen["deadlines"] = shared_pool(world.sim).live

    if how == "crash":
        def crash():
            # The manifest takes one round trip, then chunk requests go
            # out: crash the client while they are on the wire.
            yield world.sim.timeout(0.45)
            seen["inflight"] = downloader._inflight_chunks
            browser.host.crash()

        world.host("crasher", "r0/c0/m0/s0").spawn(crash())
        browser.host.spawn(transfer())
        gdn.settle(1.0)
    else:
        gdn.run(transfer(), host=browser.host)
    return downloader, _channel(browser), seen


@pytest.mark.parametrize("how", ["budget", "error", "crash"])
def test_an_aborted_transfer_leaves_nothing_behind(how):
    gdn = _wan_deployment()
    browser = gdn.add_browser("abort-" + how, CLIENT_SITE)
    gdn.run(browser.get("/gdn/apps/Wan"), host=browser.host)
    pool = shared_pool(gdn.world.sim)
    baseline = pool.live
    downloader, channel, seen = _abort(gdn, browser, how)
    expected = {"budget": TransferBudgetExhausted, "error": TransferError,
                "crash": None}[how]
    if expected is None:
        assert "error" not in seen and seen["inflight"] > 0
        assert downloader.transfers_started == 1
        assert downloader.transfers_completed == 0
    else:
        assert type(seen["error"]) is expected, seen["error"]
        # Withdrawn at once, not when their replies or deadlines come.
        assert seen["pending"] == 0 and seen["deadlines"] == baseline
    gdn.settle(10.0)  # drains: no unhandled failure surfaces
    assert gdn.world.sim.stale_timer_count == 0
    assert downloader._inflight_chunks == 0
    assert downloader._inflight_transfers == 0
    assert channel._pending == {}
    assert pool.live == baseline
