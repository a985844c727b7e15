"""Chunked-transfer tests: manifests, endpoints, downloader semantics."""

import hashlib

import pytest

from repro.core.repository import Implementation
from repro.gdn.deployment import GdnDeployment
from repro.gdn.httpd import parse_transfer_url
from repro.gdn.package import (DEFAULT_CHUNK_SIZE, PACKAGE_IMPL_ID,
                               PackageSemantics)
from repro.gdn.scenario import ReplicationScenario
from repro.gdn.transfer import (ChunkedDownloader, IntegrityError,
                                ResumeToken, TransferBudgetExhausted,
                                TransferError)
from repro.sim import rpc
from repro.sim.retry import ExponentialBackoff, RetryBudget
from repro.sim.topology import Topology
from tests.util import GlobeBed

PAYLOAD = bytes(range(256)) * 120  # 30720 bytes
SMALL = b"tiny file"


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


# -- GOS chunk endpoints -----------------------------------------------------


def test_gos_manifest_and_chunk_endpoints():
    bed = GlobeBed()
    bed.repository.register(Implementation(
        PACKAGE_IMPL_ID, PackageSemantics, code_size=10_000))
    gos = bed.gos("gos-1", "r0/c0/m0/s0")
    tool = bed.world.host("tool", "r0/c0/m0/s1")

    def drive():
        lr = yield from gos.create_local_replica(
            None, PACKAGE_IMPL_ID, "client_server", "server")
        yield from lr.invoke("addFile", {"path": "big.bin",
                                         "data": PAYLOAD})
        manifest = yield from rpc.call(
            tool, gos.host, gos.port, "get_manifest",
            {"oid": lr.oid.hex, "path": "big.bin", "chunk_size": 4096})
        chunk = yield from rpc.call(
            tool, gos.host, gos.port, "get_chunk",
            {"oid": lr.oid.hex, "path": "big.bin", "index": 1,
             "chunk_size": 4096})
        return manifest, chunk

    manifest, chunk = bed.run(drive(), host=tool)
    assert manifest["chunk_count"] == -(-len(PAYLOAD) // 4096)
    assert chunk == PAYLOAD[4096:8192]


def test_gos_chunk_endpoints_fault_on_unknown_oid():
    bed = GlobeBed()
    gos = bed.gos("gos-1", "r0/c0/m0/s0")
    tool = bed.world.host("tool", "r0/c0/m0/s1")

    def drive():
        try:
            yield from rpc.call(tool, gos.host, gos.port, "get_manifest",
                                {"oid": "ff" * 16, "path": "x"})
        except rpc.RpcFault as fault:
            return fault.kind

    assert bed.run(drive(), host=tool) == "GosError"


# -- ChunkedDownloader end to end -------------------------------------------


@pytest.fixture(scope="module")
def gdn():
    deployment = GdnDeployment(
        topology=Topology.balanced(2, 2, 1, 2), seed=11, secure=False)
    deployment.standard_fleet(gos_per_region=1)
    deployment.initial_sync()
    moderator = deployment.add_moderator("mod", "r0/c0/m0/s1")
    scenario = ReplicationScenario.master_slave(
        "gos-r0-0", ["gos-r1-0"], cache_ttl=300.0)

    def publish():
        oid = yield from moderator.create_package(
            "/apps/Big", {"big.bin": PAYLOAD}, scenario)
        return oid

    deployment.run(publish(), host=moderator.host)
    deployment.settle(5.0)
    return deployment


def test_clean_download_round_trip(gdn):
    browser = gdn.add_browser("dl-user", "r1/c0/m0/s1")
    downloader = gdn.chunked_downloader(chunk_size=4096,
                                        metrics_prefix="xfer_clean")
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
    assert len(checkpoints) == count + 1  # manifest + each chunk
    snapshot = gdn.world.metrics.snapshot()
    assert snapshot["xfer_clean.chunks_ok"] == count
    assert snapshot["xfer_clean.inflight_transfers"] == 0


def test_file_paths_containing_route_words_are_served(gdn):
    """Regression: ``/manifest/`` or ``/chunk/`` *inside* a file path
    used to hijack a plain GET (404 "unknown package" / "bad transfer
    URL"); such files must also stay reachable by chunked transfer."""
    moderator = gdn.moderators["mod"]
    files = {"docs/manifest/readme.txt": b"read me",
             "src/chunk/io.c": b"int io;" * 900}

    def publish():
        yield from moderator.create_package(
            "/apps/Gimp", files,
            ReplicationScenario.single_server("gos-r0-0"))

    gdn.run(publish(), host=moderator.host)
    gdn.settle(5.0)
    browser = gdn.add_browser("route-user", "r1/c0/m0/s1")
    downloader = gdn.chunked_downloader(chunk_size=2048,
                                        metrics_prefix="xfer_route")

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
    downloader = gdn.chunked_downloader(chunk_size=4096,
                                        metrics_prefix=None)
    saved = []

    def run():
        yield from downloader.download(
            browser, "/apps/Big", "big.bin",
            checkpoint=lambda t: saved.append(t.to_wire()))

    gdn.run(run(), host=browser.host)
    # A mid-transfer checkpoint (3 chunks in) resumes to completion.
    token = ResumeToken.from_wire(saved[3])
    assert len(token.chunks) == 3
    resumer = gdn.chunked_downloader(chunk_size=4096, metrics_prefix=None)
    browser2 = gdn.add_browser("dl-wire-2", "r1/c0/m0/s1")

    def resume():
        data, _ = yield from resumer.download(
            browser2, "/apps/Big", "big.bin", token=token)
        return data

    assert gdn.run(resume(), host=browser2.host) == PAYLOAD
    assert resumer.resumes == 1
    # Verified chunks were skipped, not re-fetched.
    assert resumer.chunks_ok == -(-len(PAYLOAD) // 4096) - 3
    assert resumer.bytes_refetched == 0


def test_no_resume_with_tight_budget_exhausts(gdn):
    # A token whose chunks were all fetched once before: resume=False
    # discards the verified progress, so every chunk is a re-fetch —
    # and a two-token budget denies the third.
    browser = gdn.add_browser("dl-budget", "r1/c0/m0/s1")
    seeded = gdn.chunked_downloader(chunk_size=4096, metrics_prefix=None)
    saved = []

    def first():
        yield from seeded.download(
            browser, "/apps/Big", "big.bin",
            checkpoint=lambda t: saved.append(t.to_wire()))

    gdn.run(first(), host=browser.host)
    token = ResumeToken.from_wire(saved[-1])
    no_resume = gdn.chunked_downloader(
        resume=False, chunk_size=4096, metrics_prefix=None,
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
    with_resume = gdn.chunked_downloader(
        resume=True, chunk_size=4096, metrics_prefix=None,
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
    downloader = gdn.chunked_downloader(
        policy=ExponentialBackoff(timeout=3.0, retries=2, base=0.05,
                                  jitter=0.0),
        chunk_size=4096, metrics_prefix=None)
    token = ResumeToken("/apps/Big", "big.bin", 4096)

    def run():
        try:
            yield from downloader.download(browser, "/apps/Big", "big.bin",
                                           token=token)
        except IntegrityError:
            return "integrity"

    # Fetch the real manifest first, then corrupt one chunk digest so
    # every arriving copy of chunk 0 fails verification.
    def seed_manifest():
        yield from downloader.download(browser, "/apps/Big", "big.bin",
                                       token=token,
                                       checkpoint=lambda t: None)

    gdn.run(seed_manifest(), host=browser.host)
    token.chunks.clear()
    token.manifest["chunk_digests"][0] = "0" * 64
    assert gdn.run(run(), host=browser.host) == "integrity"
    assert downloader.integrity_failures >= downloader.policy.attempts


def test_missing_file_is_fatal_without_retries(gdn):
    browser = gdn.add_browser("dl-404", "r1/c0/m0/s1")
    downloader = gdn.chunked_downloader(chunk_size=4096,
                                        metrics_prefix=None)

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
    downloader = gdn.chunked_downloader(metrics_prefix=None)
    token = ResumeToken("/apps/Other", "big.bin")

    def run():
        try:
            yield from downloader.download(browser, "/apps/Big", "big.bin",
                                           token=token)
        except TransferError:
            return "rejected"

    assert gdn.run(run(), host=browser.host) == "rejected"


def test_downloader_defaults_are_a_jittered_backoff():
    world = GdnDeployment(topology=Topology.balanced(1, 1, 1, 2),
                          seed=1, secure=False)
    downloader = ChunkedDownloader(world.world)
    assert isinstance(downloader.policy, ExponentialBackoff)
    assert downloader.policy.jitter > 0.0
