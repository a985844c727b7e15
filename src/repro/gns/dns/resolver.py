"""Iterative caching DNS resolver.

The client-side half of the DNS substrate: starts at the root hints,
follows referrals down the delegation tree, and caches both positive
answers and referral NS sets according to their TTLs.  Caching is what
makes the paper's DNS-based name service scale (§5: "This allows the
DNS to cache entries at client-side resolvers"), and switching it off
is the ablation in experiment E7.

Simplification: NS record data names a simulated host directly, so no
glue A-record chasing is modelled.
"""

from __future__ import annotations

from typing import (Dict, Generator, List, NamedTuple, Optional, Sequence,
                    Tuple)

from ...sim.rpc import RpcTimeout, UdpRpcClient
from ...sim.topology import nearest_first
from ...sim.transport import Host
from ...sim.world import World
from .records import DnsError, RRType, ResourceRecord, normalize_name
from .server import DNS_PORT
from .zone import Rcode

__all__ = ["CachingResolver", "ResolutionError", "ResolutionResult"]

#: How long a negative (NXDOMAIN/NODATA) answer is cached, seconds.
NEGATIVE_TTL = 30.0
#: Maximum referral-chasing steps before declaring a loop.
MAX_STEPS = 16


class ResolutionError(DnsError):
    """The resolver could not complete a resolution."""


class ResolutionResult(NamedTuple):
    """Outcome of one resolution.

    Immutable, ``records`` included: a cached answer is parsed once
    and the same object is handed to every caller that hits it.
    """

    rcode: str
    records: Tuple[ResourceRecord, ...]
    from_cache: bool

    @property
    def ok(self) -> bool:
        return self.rcode == Rcode.NOERROR and bool(self.records)


def _parse(wires: Sequence[dict]) -> Tuple[ResourceRecord, ...]:
    return tuple(ResourceRecord.from_wire(wire) for wire in wires)


class CachingResolver:
    """A per-host iterative resolver with a TTL cache."""

    def __init__(self, world: World, host: Host,
                 root_hints: List[Tuple[str, int]]):
        if not root_hints:
            raise ResolutionError("resolver needs at least one root hint")
        self.world = world
        self.host = host
        self.root_hints = list(root_hints)
        self._client = UdpRpcClient(host, timeout=3.0, retries=2)
        #: (name, type) -> (expires_at, the answer as a hit returns it)
        self._cache: Dict[Tuple[str, str],
                          Tuple[float, ResolutionResult]] = {}
        self.queries_sent = 0
        self.cache_hits = 0
        self.resolutions = 0

    # -- cache ---------------------------------------------------------------

    def _cache_get(self, qname: str, qtype: RRType
                   ) -> Optional[ResolutionResult]:
        key = (qname, qtype.value)
        entry = self._cache.get(key)
        if entry is None:
            return None
        if self.world.now > entry[0]:
            return None
        return entry[1]

    def _cache_put(self, qname: str, qtype: RRType, rcode: str,
                   records: Tuple[ResourceRecord, ...]) -> None:
        """Remember an answer, already parsed, until its TTL runs out:
        a hit is a dict lookup and an expiry compare, nothing more."""
        if records:
            ttl = min(record.ttl for record in records)
        else:
            ttl = NEGATIVE_TTL
        if ttl <= 0:
            return
        self._cache[(qname, qtype.value)] = (
            self.world.now + ttl,
            ResolutionResult(rcode, records, from_cache=True))

    def _best_cached_servers(self, qname: str) -> List[Tuple[str, int]]:
        """Start servers: the deepest cached delegation covering
        ``qname``, falling back to the root hints."""
        name = qname
        while name:
            cached = self._cache_get(name, RRType.NS)
            if cached is not None and cached.records:
                return [(record.data, DNS_PORT) for record in cached.records]
            _first, _dot, name = name.partition(".")
        return list(self.root_hints)

    # -- resolution -------------------------------------------------------------

    def resolve(self, name: str, rtype: RRType = RRType.A
                ) -> Generator[object, object, ResolutionResult]:
        """Resolve ``name``/``rtype`` starting from the root.

        ``result = yield from resolver.resolve("pkg.gdn.vu.nl", RRType.TXT)``
        """
        qname = normalize_name(name)
        qtype = rtype if type(rtype) is RRType else RRType(rtype)
        self.resolutions += 1
        cached = self._cache_get(qname, qtype)
        if cached is not None:
            self.cache_hits += 1
            return cached
        servers = self._best_cached_servers(qname)
        for _step in range(MAX_STEPS):
            reply = yield from self._query_any(servers, qname, qtype)
            rcode = reply.get("rcode")
            answers = reply.get("answers", [])
            referral = reply.get("referral", [])
            if rcode == Rcode.NXDOMAIN:
                self._cache_put(qname, qtype, rcode, ())
                return ResolutionResult(rcode, (), from_cache=False)
            if rcode != Rcode.NOERROR:
                raise ResolutionError("server returned %s for %r"
                                      % (rcode, qname))
            if answers:
                records = _parse(answers)
                cnames = [r for r in records if r.rtype == RRType.CNAME]
                if cnames and qtype != RRType.CNAME:
                    # Follow the alias chain.
                    result = yield from self.resolve(cnames[0].data, qtype)
                    return result
                self._cache_put(qname, qtype, rcode, records)
                return ResolutionResult(rcode, records, from_cache=False)
            if referral:
                # Cache the referral under the delegated name, then
                # descend to the child zone's servers.
                child = referral[0]["name"]
                delegation = _parse(referral)
                self._cache_put(child, RRType.NS, Rcode.NOERROR, delegation)
                servers = [(record.data, DNS_PORT) for record in delegation]
                continue
            # NODATA: the name exists without this record type.
            self._cache_put(qname, qtype, rcode, ())
            return ResolutionResult(rcode, (), from_cache=False)
        raise ResolutionError("referral loop resolving %r" % qname)

    def resolve_txt(self, name: str) -> Generator[object, object, str]:
        """Resolve a TXT record and return its data (GNS helper)."""
        result = yield from self.resolve(name, RRType.TXT)
        if not result.ok:
            raise ResolutionError("no TXT record for %r (%s)"
                                  % (name, result.rcode))
        return result.records[0].data

    def _query_any(self, servers: List[Tuple[str, int]], qname: str,
                   qtype: RRType) -> Generator:
        """Try candidate servers nearest-first until one answers.

        The paper's GDN Zone "distribute[s] the load by creating
        multiple authoritative name servers" (§5): each resolver asks
        the one nearest to it, so load spreads by the asker's region
        and resolution stays regional.  Ties keep NS-record order; a
        dead server is skipped and a silent one costs a timeout before
        the next nearest is asked.  A name added at the primary is
        therefore visible to a region's resolvers once that region's
        server has applied the update (one NOTIFY and transfer later).
        """
        last_error: Optional[Exception] = None
        hosts = self.world.hosts
        servers = nearest_first(
            self.host.site, servers,
            lambda server: getattr(hosts.get(server[0]), "site", None))
        for host_name, port in servers:
            target = hosts.get(host_name)
            if target is None or not target.up:
                continue
            try:
                self.queries_sent += 1
                reply = yield from self._client.call(
                    target, port, "query", {"name": qname,
                                            "type": qtype.value})
                return reply
            except RpcTimeout as exc:
                last_error = exc
        raise ResolutionError(
            "no DNS server reachable for %r: %s" % (qname, last_error))
