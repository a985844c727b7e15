"""Flash-crowd serving layer: the GLS-lookup cache (paper §1/§3.1).

The paper's premise is that flash crowds on free-software packages are
absorbed by replication — but replication only helps if the *lookup*
tier scales too.  Without a cache, every concurrent browser request
walks the full HTTPD → runtime → GLS path, so a 15× spike on one
object fires thousands of identical upstream lookups at the location
service.  This module puts a cache in front of the per-host
:class:`~repro.gls.service.GlsClient`:

* **TTL cache with negative caching and an LRU bound.**  Positive
  entries hold the contact-address wires a lookup returned (already
  nearest-first for this host); an *empty* lookup result is cached too
  (:data:`NEGATIVE_TTL`), so a flood of requests for an unregistered
  object fails fast instead of walking the GLS tree every time.
  Capacity is bounded; the least-recently-used entry is evicted.
* **Singleflight coalescing.**  N concurrent misses for one OID
  collapse into a single in-flight upstream lookup
  (:class:`~repro.sim.kernel.Singleflight`): the first miss
  becomes the *leader* and performs the lookup inside its own
  generator; later misses park behind it (a crashed waiter host cannot
  crash the simulation) and the leader fans the result out to all of
  them when it lands.
* **Serve-stale during partitions.**  When the upstream lookup times
  out or the transport fails (the GLS partition signature) and an
  expired positive entry is still within :data:`STALE_WINDOW`, the stale
  entry is served — to the leader *and* every parked waiter — and
  flagged: the entry is marked stale and re-armed for
  :data:`STALE_HOLDOFF` seconds so follow-up requests during the outage
  are answered immediately instead of queueing behind upstream
  timeouts.  Availability during a GLS partition therefore *improves*
  with serve-stale on (a named :class:`~repro.workloads.scenario.Soak`
  invariant; see ``tests/integration/test_serve_stale_soak.py``).
* **Proactive refresh of hot entries.**  Per-entry hit counters drive
  warmup: when a popular entry (:data:`HOT_THRESHOLD` hits within its
  TTL period) is read inside the last :data:`REFRESH_AHEAD` of its
  TTL, a background process refreshes it *before* it expires, so a
  flash crowd on a hot object never sees the miss latency cliff at
  the TTL boundary.

Telemetry follows the repo's pull-only discipline: plain-int counters
(``hits`` / ``misses`` / ``stale_served`` / ``coalesced`` /
``evictions`` and the upstream's lookups) exposed as function-backed
instruments via :meth:`GlsLookupCache.bind_metrics`, plus in-flight
and parked-waiter gauges that ``gdnbench`` checks drain to zero after
a drive.

The cache is *also* a location-service wrapper: ``register`` /
``unregister`` delegate to the upstream client, and a registration
change invalidates the corresponding entry — a replica
added or moved through this host is visible to its own lookups
immediately, not after a TTL.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Generator, List, Optional

from ..sim.kernel import Simulator, Singleflight
from ..sim.rpc import RpcTimeout
from ..sim.transport import TransportError

__all__ = ["GlsLookupCache"]

#: Upstream failures that mean "the GLS is unreachable" (a partition
#: or an outage) rather than "the GLS answered no" — the only failures
#: serve-stale may paper over.  A definitive fault reply
#: (:class:`~repro.gls.service.GlsError`) is an *answer* and is never
#: masked by a stale entry.
STALE_ELIGIBLE = (RpcTimeout, TransportError)

#: Seconds an empty lookup result is cached.
NEGATIVE_TTL = 30.0
#: Seconds past its expiry an entry may still be served stale.
STALE_WINDOW = 3600.0
#: Seconds a stale-served entry is re-armed for, so requests during an
#: outage are answered at once instead of queueing behind timeouts.
STALE_HOLDOFF = 5.0
#: Hits within one TTL period that make an entry hot.
HOT_THRESHOLD = 3
#: The last fraction of its TTL in which a hit on a hot entry
#: refreshes it ahead of expiry.
REFRESH_AHEAD = 0.2


class _Entry:
    """One cached lookup result (positive or negative)."""

    __slots__ = ("key", "wires", "negative", "expires", "ttl", "hits",
                 "stale", "refreshing")

    def __init__(self, key: str):
        # The other fields are set by the store that makes the entry:
        # hits counts the hits within the current TTL period, stale is
        # set while it serves past its TTL.
        self.key = key
        self.refreshing = False  # a background refresh is in flight


class GlsLookupCache:
    """TTL/negative/serve-stale cache + singleflight over GLS lookups.

    ``upstream`` is anything exposing the
    :class:`~repro.gls.service.GlsClient` generator surface
    (``lookup`` mandatory; ``register``/``unregister`` optional,
    delegated).  One cache serves one host's runtime — the
    cached wire lists are nearest-first *for the host that fetched
    them*, so sharing a cache across sites would hand browsers a
    wrong-distance replica ordering.
    """

    COUNTS = ("hits", "misses", "stale_served", "coalesced", "evictions",
              "upstream.lookups")

    def __init__(self, sim: Simulator, upstream,
                 ttl: float = 60.0,
                 capacity: int = 1024,
                 serve_stale: bool = False):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.upstream = upstream
        self.ttl = ttl
        self.capacity = capacity
        self.serve_stale = serve_stale
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        #: One upstream lookup in flight per key; misses behind it park.
        self.flights = Singleflight(sim, abandoned=TransportError)
        self.hits = 0
        self.misses = 0
        self.negative_hits = 0
        self.stale_served = 0
        self.coalesced = 0
        self.refreshes = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- telemetry -------------------------------------------------------

    @staticmethod
    def bind_metrics(registry, prefix: str,
                     current: Callable[[], "GlsLookupCache"]) -> None:
        """Expose the plain-int accounting of ``current()``, the host's
        cache now, as function-backed instruments (the lookup hot path
        never touches one)."""
        for name in ("hits", "misses", "stale_served", "coalesced",
                     "evictions"):
            registry.counter("%s.%s" % (prefix, name),
                             fn=lambda name=name: getattr(current(), name))
        registry.gauge(prefix + ".inflight",
                       fn=lambda: current().flights.inflight)
        registry.gauge(prefix + ".waiters",
                       fn=lambda: current().flights.parked)
        if getattr(current().upstream, "lookups", None) is not None:
            registry.counter(prefix + ".upstream_lookups",
                             fn=lambda: current().upstream.lookups)

    # -- the cached lookup ----------------------------------------------

    def lookup(self, oid_hex: str, ttl: Optional[float] = None,
               refresh: bool = False
               ) -> Generator[Any, Any, List[dict]]:
        """Contact addresses for an OID, served from cache when fresh.

        ``ttl`` overrides the cache default for the entry this lookup
        (re)fills — the HTTPD's per-object cache policy flows through
        :meth:`Runtime.bind(cache_ttl=...) <repro.core.runtime.Runtime
        .bind>` into the lookup-cache TTL, which is what makes the
        long-standing ``cache_ttl`` knob real at this tier.
        ``refresh=True`` bypasses a fresh entry *and* serve-stale (the
        caller is explicitly chasing a replica that moved), but still
        coalesces with any in-flight lookup for the key.
        """
        entry = self._entries.get(oid_hex)
        if entry is not None and not refresh \
                and self.sim.now < entry.expires:
            entry.hits += 1
            self._entries.move_to_end(oid_hex)
            if entry.stale:
                self.stale_served += 1
            elif entry.negative:
                self.negative_hits += 1
            else:
                self.hits += 1
                self._maybe_refresh(entry)
            return list(entry.wires)
        self.misses += 1
        waiter = self.flights.follow(oid_hex)
        if waiter is not None:
            self.coalesced += 1
            wires = yield waiter
            return list(wires)
        wires = yield from self.flights.lead(
            oid_hex, self._fetch(oid_hex, ttl, stale_ok=not refresh,
                                 count_self=True))
        return list(wires)

    def _fetch(self, oid_hex: str, ttl: Optional[float],
               stale_ok: bool, count_self: bool
               ) -> Generator[Any, Any, List[dict]]:
        """The leader's work: one upstream lookup, stored.

        On an upstream-unreachable failure with serve-stale enabled and
        an eligible expired entry, the stale wires are served (and the
        entry re-armed for :data:`STALE_HOLDOFF`) instead of raising; the
        singleflight hands the leader's answer or failure to every
        parked waiter.
        """
        try:
            wires = yield from self.upstream.lookup(oid_hex)
        except STALE_ELIGIBLE:
            stale = (self._stale_entry(oid_hex)
                     if stale_ok and self.serve_stale else None)
            if stale is None:
                raise
            # Flag and re-arm: follow-up requests during the outage
            # are stale *hits* for the holdoff window, not fresh
            # upstream timeouts.
            stale.stale = True
            stale.expires = self.sim.now + STALE_HOLDOFF
            self.stale_served += (self.flights.waiting(oid_hex)
                                  + (1 if count_self else 0))
            return stale.wires
        self._store(oid_hex, wires, ttl)
        return wires

    def _stale_entry(self, oid_hex: str) -> Optional[_Entry]:
        """The expired-but-servable entry for a key, if any.

        Negative entries are never served stale: claiming "not found"
        while the GLS is unreachable would *reduce* availability."""
        entry = self._entries.get(oid_hex)
        if entry is None or entry.negative:
            return None
        if self.sim.now - entry.expires > STALE_WINDOW:
            return None
        return entry

    def _store(self, oid_hex: str, wires: List[dict],
               ttl: Optional[float]) -> _Entry:
        wires = list(wires)
        negative = not wires
        ttl_value = (NEGATIVE_TTL if negative
                     else (ttl if ttl is not None else self.ttl))
        entry = self._entries.get(oid_hex)
        if entry is None:
            if len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            entry = _Entry(oid_hex)
            self._entries[oid_hex] = entry
        else:
            self._entries.move_to_end(oid_hex)
        entry.wires = wires
        entry.negative = negative
        entry.expires = self.sim.now + ttl_value
        entry.ttl = ttl_value
        entry.hits = 0
        entry.stale = False
        return entry

    # -- proactive refresh ------------------------------------------------

    def _maybe_refresh(self, entry: _Entry) -> None:
        """Warm a hot entry before its TTL expires (hit-counter
        driven); at most one background refresh per entry at a time."""
        if entry.refreshing or entry.hits < HOT_THRESHOLD \
                or entry.key in self.flights:
            return
        if entry.expires - self.sim.now > REFRESH_AHEAD * entry.ttl:
            return
        entry.refreshing = True
        self.refreshes += 1
        self.sim.process(self._refresh(entry.key, entry.ttl))

    def _refresh(self, oid_hex: str, ttl: float) -> Generator:
        try:
            # Registered as the in-flight leader, so misses landing
            # after the entry expires coalesce onto the refresh.  A
            # failed refresh serves stale to those waiters (the cache
            # itself counts none: no request rode the leader) or fans
            # the failure out; either way the entry ages normally and
            # the next miss takes over.
            yield from self.flights.lead(
                oid_hex, self._fetch(oid_hex, ttl, stale_ok=True,
                                     count_self=False))
        except Exception:
            pass
        finally:
            entry = self._entries.get(oid_hex)
            if entry is not None:
                entry.refreshing = False

    # -- location-service passthroughs ------------------------------------

    def invalidate(self, oid_hex: str) -> bool:
        """Drop a cached entry (registration change); True if present."""
        if self._entries.pop(oid_hex, None) is not None:
            self.invalidations += 1
            return True
        return False

    def register(self, oid_hex: Optional[str], ca_wire: dict,
                 store_level: int = 0) -> Generator[Any, Any, str]:
        """Delegate to the upstream client, then invalidate: a replica
        registered through this host must be visible to this host's
        next lookup, not after a TTL."""
        value = yield from self.upstream.register(oid_hex, ca_wire,
                                                  store_level)
        self.invalidate(value if oid_hex is None else oid_hex)
        return value

    def unregister(self, oid_hex: str, ca_wire: dict) -> Generator:
        value = yield from self.upstream.unregister(oid_hex, ca_wire)
        self.invalidate(oid_hex)
        return value
