"""The per-address-space Globe run-time system and ``bind`` (§3.4).

Binding installs a local representative of a DSO in the caller's
address space:

1. the OID is resolved to contact addresses by the Globe Location
   Service (nearest replica first);
2. the implementation named by the chosen contact address is loaded
   from a nearby implementation repository;
3. a client-role (or cache-role) representative is composed and wired
   to the chosen replica.

The runtime accepts any location-service client exposing
``lookup(oid_hex) -> generator -> [contact-address wire dicts]`` — the
real :class:`repro.gls.service.GlsClient` in deployments, or a stub in
unit tests.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional

from ..sim.rpc import ChannelPool
from ..sim.transport import Host
from .ids import ContactAddress, ObjectId
from .local_repr import LocalRepresentative
from .replication.base import PROTOCOLS
from .repository import ImplementationRepository

__all__ = ["Runtime", "BindError"]


class BindError(Exception):
    """Raised when an OID cannot be bound to a local representative."""


class Runtime:
    """Globe run-time system for one address space (one host).

    Owns the address space's :class:`~repro.sim.rpc.ChannelPool`
    (``pool``): every representative it composes, and every tool built
    on it, reaches a given peer endpoint over the same open channel.
    A rebind — bindings are soft state under ``binding_ttl`` — composes
    a new representative but opens no connection unless the GLS now
    names a peer this address space has no channel to.  The pool holds
    at most one channel per (peer host, port) ever contacted, until
    its host crashes.
    """

    def __init__(self, world, host: Host, location_service,
                 repository: ImplementationRepository,
                 channel_wrapper: Optional[Callable] = None,
                 binding_ttl: Optional[float] = None,
                 lookup_cache=None):
        """``binding_ttl`` makes cached bindings soft state: a bind
        older than the TTL is refreshed with a new GLS lookup, so
        long-lived address spaces (HTTPDs) notice replicas that were
        added or moved after they first bound.

        ``lookup_cache`` is an optional
        :class:`~repro.gdn.cache.GlsLookupCache` (wrapping the same
        ``location_service``) consulted for the GLS lookup inside
        :meth:`bind` — TTL/negative/serve-stale caching plus
        singleflight coalescing of concurrent misses.  ``None`` keeps
        the direct lookup path byte-identical to the uncached
        reference."""
        self.world = world
        self.host = host
        self.location_service = location_service
        self.repository = repository
        self.pool = ChannelPool(host, channel_wrapper)
        self.binding_ttl = binding_ttl
        self.lookup_cache = lookup_cache
        self.bound: Dict[ObjectId, LocalRepresentative] = {}
        self._bound_at: Dict[ObjectId, float] = {}
        self.binds_performed = 0

    def bind(self, oid: ObjectId, cache_ttl: Optional[float] = None,
             refresh: bool = False
             ) -> Generator[Any, Any, LocalRepresentative]:
        """Install (or reuse) a local representative for ``oid``.

        ``lr = yield from runtime.bind(oid)``

        ``cache_ttl`` selects a caching representative that holds a
        local state copy with the given freshness window; otherwise the
        protocol named in the nearest contact address decides the
        client subobject.  ``refresh=True`` forces a fresh GLS lookup
        (used after a replica crash made the cached binding stale).
        """
        if not refresh and oid in self.bound:
            age = self.world.now - self._bound_at.get(oid, 0.0)
            if self.binding_ttl is None or age <= self.binding_ttl:
                return self.bound[oid]
        cache = self.lookup_cache
        if cache is not None:
            # The per-object cache TTL (the HTTPD's cache policy) also
            # bounds how long the GLS answer may be reused.
            wires = yield from cache.lookup(oid.hex, ttl=cache_ttl,
                                            refresh=refresh)
        else:
            wires = yield from self.location_service.lookup(oid.hex)
        if not wires:
            raise BindError("no contact addresses for %r" % oid)
        addresses = [ContactAddress.from_wire(wire) for wire in wires]
        primary = addresses[0]
        implementation = yield from self.repository.load(
            self.host, primary.impl_id)
        if cache_ttl is not None:
            semantics = implementation.make_semantics()
            replication = PROTOCOLS["cache"]["client"](
                addresses, ttl=cache_ttl)
        else:
            if primary.protocol not in PROTOCOLS:
                raise BindError("unknown replication protocol %r"
                                % primary.protocol)
            semantics = None
            replication = PROTOCOLS[primary.protocol]["client"](addresses)
        representative = LocalRepresentative(
            self.host, self.world, oid, implementation.interface, semantics,
            replication, self.pool)
        yield from representative.start()
        old = self.bound.get(oid)
        if old is not None:
            old.detach()
        self.bound[oid] = representative
        self._bound_at[oid] = self.world.now
        self.binds_performed += 1
        return representative

    def unbind(self, oid: ObjectId) -> None:
        representative = self.bound.pop(oid, None)
        if representative is not None:
            representative.detach()
