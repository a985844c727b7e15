"""Resilient chunked transfer: budgeted downloads that survive faults.

The GDN ships large free-software packages across an unreliable wide
area (§1, §6.1), yet a whole-file ``GET`` is all-or-nothing: a crash
or partition mid-download wastes everything already received.  This
module fetches large files as chunk requests against the
GDN-HTTPD's manifest/chunk URL scheme (the HTTPD invokes the package
DSO's ``getFileManifest`` / ``getFileChunk``), verifying each chunk
against its manifest digest, and records progress in a
:class:`ResumeToken` that survives the client: a browser that crashes
or loses its replica mid-transfer re-binds — possibly to a
*different* replica via the GLS, including a serve-stale cached
binding — and resumes from the last verified chunk instead of
restarting.

A wide-area round trip costs far more than carrying a chunk, and
every GET costs the access point a request, a name resolution, a
bind and a GOS round trip, so a transfer asks for an aligned block of
:data:`TRANSFER_WINDOW` chunks as one GET: the chunk URL with a
``chunk_size`` of the whole block, which the package DSO's
``getFileChunk`` serves like any other size.  The client splits the
reply at the manifest's chunk size and verifies each piece against
its own digest, so grouping chunks in transit changes nothing about
verification or resume.  Only a block of chunks never fetched before
goes whole; a resume that lands mid-block and every re-fetch go one
chunk at a time, and so does a piece that fails verification or that
a short reply does not cover.  Chunks are verified and applied
strictly in index order, each exactly once.

Progress is checkpointed once per reply, not once per chunk: after the
manifest, and once the chunks a reply verified are applied, which is
before the transfer next waits (a re-fetch of one piece, a retry
delay, the next GET).  Nothing can happen between two applies of one
reply, so the token saved at every wait holds every chunk verified so
far, as a checkpoint per chunk would.

Retries follow a shared :class:`~repro.sim.retry.RetryPolicy`
(exponential backoff with seeded deterministic jitter by default) and
an optional :class:`~repro.sim.retry.RetryBudget` charged for every
retry *and* every re-fetch of a chunk that was already fetched once —
so a transfer that keeps restarting from zero exhausts its budget,
while a resuming transfer spends only what the fault actually cost.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Generator, List, Optional, Tuple

from ..sim.retry import ExponentialBackoff, RetryBudget, RetryPolicy
from ..sim.rpc import RpcTimeout
from ..sim.transport import ConnectionClosed, TransportError
from ..sim.world import World
from .browser import Browser

__all__ = ["ChunkedDownloader", "ResumeToken", "TransferError",
           "IntegrityError", "TransferBudgetExhausted"]

#: Transient failures worth retrying: the access point may restart, the
#: client's domain may heal, the HTTPD may fail over to another replica.
_RETRYABLE = (RpcTimeout, ConnectionClosed, TransportError)

#: Chunks per GET: an aligned block of this many chunks, none fetched
#: before, is one request, so this many chunks are in flight at once.
TRANSFER_WINDOW = 4


class TransferError(Exception):
    """A chunked transfer failed for good."""


class IntegrityError(TransferError):
    """Reassembled data does not match the manifest digest."""


class TransferBudgetExhausted(TransferError):
    """The retry budget denied a retry or re-fetch; transfer abandoned."""


def _check_manifest(manifest, token: "ResumeToken") -> None:
    """Reject a manifest the transfer cannot index its chunks by: it
    reads digests and builds URLs up to a block ahead of the head."""
    if not isinstance(manifest, dict):
        valid = False
    else:
        count = manifest.get("chunk_count")
        digests = manifest.get("chunk_digests")
        size = manifest.get("chunk_size")
        valid = (type(count) is int and isinstance(digests, (list, tuple))
                 and len(digests) == count
                 and type(size) is int and size > 0
                 and isinstance(manifest.get("digest"), str))
    if not valid:
        raise TransferError("malformed manifest for %s:%s"
                            % (token.object_name, token.file_path))


class ResumeToken:
    """Persistent transfer progress: manifest + verified chunks.

    The token is the client's crash-survivable state: serialise it
    with :meth:`to_wire` whenever it gains chunks (the downloader's
    ``checkpoint`` callback is the hook), and hand the deserialised
    token to a *fresh* downloader call after a crash to resume.

    ``fetched_ever`` records every chunk index whose bytes arrived at
    least once — it is never cleared, even when verified progress is
    discarded, so re-fetch accounting (and the budget charges that
    keep restart-from-zero expensive) survives resume boundaries.
    """

    def __init__(self, object_name: str, file_path: str,
                 chunk_size: Optional[int] = None):
        self.object_name = object_name
        self.file_path = file_path
        #: Requested chunk granularity (None = server default).
        self.chunk_size = chunk_size
        self.manifest: Optional[dict] = None
        self.chunks: dict = {}          # index -> verified bytes
        self.fetched_ever: set = set()  # indexes fetched at least once

    @property
    def chunk_count(self) -> Optional[int]:
        return (self.manifest["chunk_count"]
                if self.manifest is not None else None)

    @property
    def complete(self) -> bool:
        count = self.chunk_count
        return count is not None and len(self.chunks) == count

    def assemble(self) -> bytes:
        if not self.complete:
            raise TransferError(
                "transfer incomplete: %d of %s chunks verified"
                % (len(self.chunks), self.chunk_count))
        return b"".join(self.chunks[index]
                        for index in range(self.chunk_count))

    def to_wire(self) -> dict:
        return {
            "object_name": self.object_name,
            "file_path": self.file_path,
            "chunk_size": self.chunk_size,
            "manifest": dict(self.manifest) if self.manifest else None,
            "chunks": dict(self.chunks),
            "fetched_ever": sorted(self.fetched_ever),
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "ResumeToken":
        token = cls(wire["object_name"], wire["file_path"],
                    wire.get("chunk_size"))
        token.manifest = (dict(wire["manifest"])
                          if wire.get("manifest") else None)
        token.chunks = {int(index): data
                        for index, data in wire.get("chunks", {}).items()}
        token.fetched_ever = set(wire.get("fetched_ever", []))
        return token

    def __repr__(self) -> str:
        return ("ResumeToken(%s:%s, %d/%s chunks)"
                % (self.object_name, self.file_path, len(self.chunks),
                   self.chunk_count if self.manifest else "?"))


class ChunkedDownloader:
    """Budgeted, resumable chunked downloads through a browser.

    One instance serves any number of transfers (telemetry and the
    retry budget aggregate across them).  ``resume=False`` discards a
    token's verified chunks at the start of each call — the
    restart-from-zero discipline the Soak scenarios use to show why
    resumption matters: every re-fetched byte charges the budget.
    """

    def __init__(self, world: World, policy: Optional[RetryPolicy] = None,
                 budget: Optional[RetryBudget] = None, resume: bool = True,
                 chunk_size: Optional[int] = None):
        self.world = world
        self.policy = policy if policy is not None else ExponentialBackoff(
            timeout=3.0, retries=5, base=0.2, multiplier=2.0,
            max_delay=5.0, jitter=0.5)
        self.budget = budget if budget is not None else self.policy.budget
        self.resume = resume
        self.chunk_size = chunk_size
        # -- telemetry (plain ints, function-backed via bind_metrics) --
        self.transfers_started = 0
        self.transfers_completed = 0
        self.transfers_failed = 0
        self.chunks_ok = 0
        self.chunks_retried = 0
        self.manifest_retries = 0
        self.resumes = 0
        self.integrity_failures = 0
        self.budget_exhausted = 0
        self.duplicate_applications = 0
        self.bytes_fetched = 0
        self.bytes_refetched = 0
        self.bytes_applied = 0
        self._inflight_transfers = 0
        self._inflight_chunks = 0

    def bind_metrics(self, registry, prefix: str) -> None:
        for name in ("transfers_started", "transfers_completed",
                     "transfers_failed", "chunks_ok", "chunks_retried",
                     "manifest_retries", "resumes", "integrity_failures",
                     "budget_exhausted", "duplicate_applications",
                     "bytes_fetched", "bytes_refetched", "bytes_applied"):
            registry.counter("%s.%s" % (prefix, name),
                             fn=lambda n=name: getattr(self, n))
        registry.gauge(prefix + ".inflight_transfers",
                       fn=lambda: self._inflight_transfers)
        registry.gauge(prefix + ".inflight_chunks",
                       fn=lambda: self._inflight_chunks)
        if self.budget is not None:
            self.budget.bind_metrics(registry, prefix + ".budget")

    def refetch_ratio(self) -> float:
        """Re-fetched bytes per applied byte (0.0 = nothing wasted)."""
        return self.bytes_refetched / max(1, self.bytes_applied)

    # -- the transfer ------------------------------------------------------

    def download(self, browser: Browser, object_name: str, file_path: str,
                 token: Optional[ResumeToken] = None,
                 checkpoint: Optional[Callable[[ResumeToken], None]] = None
                 ) -> Generator:
        """``data, token = yield from downloader.download(...)``.

        ``token`` resumes a prior transfer (from :meth:`ResumeToken.
        to_wire` saved by a previous ``checkpoint`` callback); its
        manifest is checked as a fetched one is.  ``checkpoint(token)``
        fires after the manifest and once per reply that verified
        chunks, after they are applied and before the transfer next
        waits, so what the caller persisted at any wait holds every
        verified chunk: the granularity resumption needs, paid once
        per GET rather than once per chunk.  Raises a
        :class:`TransferError` subclass when the transfer cannot
        finish.
        """
        self.transfers_started += 1
        self._inflight_transfers += 1
        try:
            result = yield from self._download(browser, object_name,
                                               file_path, token, checkpoint)
        except TransferError:
            self.transfers_failed += 1
            raise
        finally:
            self._inflight_transfers -= 1
        self.transfers_completed += 1
        return result

    def _download(self, browser: Browser, object_name: str, file_path: str,
                  token: Optional[ResumeToken],
                  checkpoint: Optional[Callable]) -> Generator:
        if token is None:
            token = ResumeToken(object_name, file_path, self.chunk_size)
        elif (token.object_name, token.file_path) != (object_name,
                                                      file_path):
            raise TransferError("token is for %s:%s, not %s:%s"
                                % (token.object_name, token.file_path,
                                   object_name, file_path))
        elif not self.resume:
            # Restart-from-zero: verified progress is discarded but
            # fetched_ever survives, so every re-fetch stays visible to
            # the budget — this is what makes no-resume transfers
            # exhaust it under repeated faults.
            token.chunks.clear()
            token.manifest = None
        elif token.manifest is not None or token.chunks:
            self.resumes += 1

        # Jitter keyed by the *downloading* host: distinct clients
        # desynchronize, one client replays deterministically.
        rng_box = [None]

        def jitter():
            if rng_box[0] is None:
                rng_box[0] = self.policy.make_rng(browser.host.name)
            return rng_box[0]

        if token.manifest is None:
            suffix = ("?chunk_size=%d" % token.chunk_size
                      if token.chunk_size else "")
            manifest = yield from self._fetch(
                browser, "/gdn%s/manifest/%s%s"
                % (object_name, file_path, suffix), jitter)
            _check_manifest(manifest, token)
            token.manifest = manifest
            if checkpoint is not None:
                checkpoint(token)
        else:
            _check_manifest(token.manifest, token)
        manifest = token.manifest

        # An aligned block of TRANSFER_WINDOW chunks that were never
        # fetched goes as one GET; anything else (a resume that lands
        # mid-block, a re-fetch) goes one chunk at a time.  Either way
        # chunks are verified and applied in index order, each exactly
        # once, and each reply's run of them is checkpointed once.
        def apply(run: List[Tuple[int, bytes]]) -> None:
            applied = False
            for index, data in run:
                if index in token.chunks:
                    # Must be unreachable: each index is applied exactly
                    # once.  The counter is the Soak invariant's witness.
                    self.duplicate_applications += 1
                    continue
                token.chunks[index] = data
                self.bytes_applied += len(data)
                applied = True
            if applied and checkpoint is not None:
                checkpoint(token)

        count = manifest["chunk_count"]
        head = 0
        while head < count:
            if head in token.chunks:
                head += 1
                continue
            block = range(head, min(head + TRANSFER_WINDOW, count))
            width = (TRANSFER_WINDOW if head % TRANSFER_WINDOW == 0
                     and not any(index in token.chunks
                                 or index in token.fetched_ever
                                 for index in block) else 1)
            yield from self._fetch_run(browser, token, head, width, jitter,
                                       apply)
            head += width

        data = token.assemble()
        if hashlib.sha256(data).hexdigest() != manifest["digest"]:
            self.integrity_failures += 1
            raise IntegrityError(
                "%s:%s reassembled to a different digest (file changed "
                "mid-transfer?)" % (object_name, file_path))
        return data, token

    def _fetch_run(self, browser: Browser, token: ResumeToken, head: int,
                   width: int, jitter: Callable,
                   apply: Callable[[List[Tuple[int, bytes]]], None]
                   ) -> Generator:
        """Fetch the ``width`` chunks from ``head`` (a multiple of
        ``width``; the run is cut at the end of the file) as one GET
        under the retry/budget discipline, verify each against its own
        digest and ``apply`` them, in index order.

        The reply is split into manifest-sized pieces; bytes past the
        run are dropped.  A piece that fails verification, or that a
        short reply does not cover, is fetched again on its own
        (width 1), where a failed verification is retried in place.
        The pieces verified before it are applied first, so every
        wait finds them applied.
        """
        manifest = token.manifest
        size = manifest["chunk_size"]
        url = ("/gdn%s/chunk/%d/%s?chunk_size=%d"
               % (token.object_name, head // width, token.file_path,
                  width * size))
        if head in token.fetched_ever and not self._spend():
            raise TransferBudgetExhausted(
                "budget denied re-fetch of chunk %d of %s:%s"
                % (head, token.object_name, token.file_path))
        end = min(head + width, manifest["chunk_count"])
        for integrity_round in range(self.policy.attempts):
            body = yield from self._fetch(browser, url, jitter, chunk=True)
            run = []  # verified, not yet applied
            for index in range(head, end):
                offset = (index - head) * size
                piece = body[offset:offset + size]
                if (index == head or offset < len(body)) \
                        and self._verify(token, index, piece):
                    run.append((index, piece))
                elif width > 1:
                    # On its own; charged if any bytes of it arrived.
                    apply(run)
                    run = []
                    yield from self._fetch_run(browser, token, index, 1,
                                               jitter, apply)
                else:
                    break  # the one chunk failed: retry in place
            else:
                apply(run)
                return
            # A stale replica (or a file mutated under the transfer)
            # served different bytes: retryable — the HTTPD rebinds on
            # failure and bindings are soft state, so a later attempt
            # can reach a fresh replica.
            self.chunks_retried += 1
            if not self._spend():
                raise TransferBudgetExhausted(
                    "budget denied integrity re-fetch of chunk %d of "
                    "%s:%s" % (head, token.object_name, token.file_path))
            delay = self.policy.retry_delay(integrity_round + 1, jitter)
            if delay > 0.0:
                yield self.world.sim.timeout(delay)
        raise IntegrityError(
            "chunk %d of %s:%s failed verification %d times"
            % (head, token.object_name, token.file_path,
               self.policy.attempts))

    def _verify(self, token: ResumeToken, index: int, data) -> bool:
        """Account for chunk bytes that arrived; True if they match
        the manifest's digest for the chunk."""
        self.bytes_fetched += len(data)
        if index in token.fetched_ever:
            self.bytes_refetched += len(data)
        token.fetched_ever.add(index)
        if hashlib.sha256(data).hexdigest() == \
                token.manifest["chunk_digests"][index]:
            self.chunks_ok += 1
            return True
        self.integrity_failures += 1
        return False

    def _fetch(self, browser: Browser, url: str, jitter: Callable,
               chunk: bool = False) -> Generator:
        """One guarded GET with policy-driven retries.

        Transient failures (timeout, closed channel, unreachable
        access point, 503 from a replica-less HTTPD) retry under the
        policy's backoff and the budget; anything else is fatal.
        """
        policy = self.policy
        last_error: Optional[Exception] = None
        for attempt in range(policy.attempts):
            if attempt:
                if chunk:
                    self.chunks_retried += 1
                else:
                    self.manifest_retries += 1
                if not self._spend():
                    raise TransferBudgetExhausted(
                        "budget denied retry of %s" % url)
                delay = policy.retry_delay(attempt, jitter)
                if delay > 0.0:
                    yield self.world.sim.timeout(delay)
            self._inflight_chunks += 1
            try:
                response = yield from browser.get(url,
                                                  timeout=policy.timeout)
            except _RETRYABLE as exc:
                last_error = exc
                continue
            finally:
                self._inflight_chunks -= 1
            if response.status == 200:
                return response.body
            if response.status == 503:
                # Replicas unreachable right now; rebind-and-retry.
                last_error = TransferError("503 for %s" % url)
                continue
            raise TransferError("HTTP %d for %s" % (response.status, url))
        raise TransferError("no reply for %s after %d attempts (%s)"
                            % (url, policy.attempts, last_error))

    def _spend(self) -> bool:
        if self.budget is None:
            return True
        if self.budget.spend(self.world.now):
            return True
        self.budget_exhausted += 1
        return False
