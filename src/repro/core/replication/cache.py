"""Client-side caching with TTL-based freshness (paper §3.3 "lazy
replication", §4: the representative installed in a GDN-HTTPD "may act
as a replica for the DSO, in which case downloading … is fast").

The caching subobject keeps a full local copy of the object state.
Reads execute locally while the copy is fresh (its age is below the
TTL); a stale copy is revalidated with a ``pull`` carrying the cached
version, so an unchanged object costs only a small round-trip rather
than a state transfer, and a changed one costs the writes it missed,
squashed into one change set (whole state only when the replica's
journal no longer reaches back to the cached version).  Writes are
forwarded to the authoritative copy and invalidate the cache.  The
cache journals what it replays, so it answers downstream pulls the
same way.

This is the protocol that turns a GDN-enabled HTTPD into a replica of
popular packages without any moderator action.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from ..idl import Mode
from ..ids import ContactAddress
from .base import JournalledCopy, ReplicationError, register_protocol

__all__ = ["CachingClient"]

PROTOCOL = "cache"


class CachingClient(JournalledCopy):
    """A pull-based caching local representative."""

    protocol = PROTOCOL
    role = "cache"

    def __init__(self, addresses: List[ContactAddress], ttl: float = 60.0):
        super().__init__()
        if not addresses:
            raise ReplicationError("no contact addresses to bind to")
        self.bound = addresses[0]
        self.write_target = (self.find_role(addresses, "master")
                             or self.find_role(addresses, "server")
                             or self.bound)
        self.ttl = ttl
        self.fetched_at: Optional[float] = None
        self.pulls = 0
        self.revalidations = 0

    # -- freshness ---------------------------------------------------------

    @property
    def _now(self) -> float:
        return self.lr.host.sim.now

    def is_fresh(self) -> bool:
        return (self.fetched_at is not None
                and self._now - self.fetched_at <= self.ttl)

    def invalidate(self) -> None:
        self.fetched_at = None

    def _refresh(self) -> Generator:
        self.pulls += 1
        if (yield from self._pull(self.bound)) == "fresh":
            self.revalidations += 1
        self.fetched_at = self._now

    # -- the standard interface ---------------------------------------------

    def invoke(self, payload: bytes, mode: Mode
               ) -> Generator[Any, Any, bytes]:
        if mode == Mode.READ:
            if not self.is_fresh():
                yield from self._refresh()
            else:
                self.reads_local += 1
            return self.control.execute(payload)
        self.writes_forwarded += 1
        result = yield from self._invoke_remote(
            self.write_target, payload, mode)
        self.invalidate()
        return result

    def handle_message(self, message: dict, ctx
                       ) -> Generator[Any, Any, dict]:
        # A cache can itself answer pulls (e.g. browsers behind a
        # GDN-proxy), but only while fresh; anything else is refused.
        if message.get("type") == "pull" and self.is_fresh():
            return self._answer_pull(message)
        return {"type": "error", "reason": "cache cannot serve this"}
        yield  # pragma: no cover


def _make_cache(addresses, ttl=60.0, **_kwargs):
    return CachingClient(addresses, ttl=ttl)


register_protocol(PROTOCOL, _make_cache, {})
