"""Local representatives: the per-address-space face of a DSO (§3.3).

A distributed shared object *is* the collection of its local
representatives (Figure 1a).  Each representative bundles the four
subobjects; its composition depends on its role:

* client proxies (role ``client``) carry no semantics state;
* caches (role ``cache``) carry a semantics copy refreshed on demand;
* replicas (roles ``server``/``master``/``slave``/``replica``) carry
  authoritative or synchronised state and live inside Globe Object
  Servers (or GDN-HTTPDs acting as replicas).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..sim.rpc import ChannelPool
from ..sim.transport import Host
from .idl import Interface
from .ids import ContactAddress, ObjectId
from .subobjects import (CommunicationSubobject, ControlSubobject,
                         SemanticsSubobject)

__all__ = ["LocalRepresentative"]


class LocalRepresentative:
    """One address space's representative of a DSO."""

    def __init__(self, host: Host, world, oid: ObjectId,
                 interface: Interface,
                 semantics: Optional[SemanticsSubobject],
                 replication, pool: ChannelPool,
                 contact_address: Optional[ContactAddress] = None):
        """``pool`` is the composing address space's one
        :class:`~repro.sim.rpc.ChannelPool` (its runtime's or object
        server's), shared by every representative composed there."""
        self.host = host
        self.oid = oid
        #: The address registered for this representative in the GLS
        #: (replicas only; client proxies are not registered).
        self.contact_address = contact_address
        self.comm = CommunicationSubobject(world, pool)
        self.control = ControlSubobject(semantics, interface)
        self.replication = replication
        self.control.replication = replication
        replication.attach(self)

    @property
    def role(self) -> str:
        return self.replication.role

    @property
    def semantics(self) -> Optional[SemanticsSubobject]:
        return self.control.semantics

    def start(self) -> Generator:
        """Run protocol start-up (replica join / state fetch)."""
        yield from self.replication.start()

    def invoke(self, method: str, args: Optional[dict] = None
               ) -> Generator[Any, Any, Any]:
        """Invoke a DSO method through the subobject stack.

        ``value = yield from lr.invoke("listContents")``
        """
        result = yield from self.control.invoke(method, args)
        return result

    def handle_message(self, message: dict, ctx
                       ) -> Generator[Any, Any, dict]:
        """Entry point for protocol messages from other representatives."""
        reply = yield from self.replication.handle_message(message, ctx)
        return reply

    def detach(self) -> None:
        """Remove this representative from the address space.

        Stops the replication subobject (a replica leaves its master,
        best effort).  Connections are not touched: they belong to the
        address space's channel pool and carry other representatives'
        calls."""
        self.replication.stop()

    def __repr__(self) -> str:
        return ("LocalRepresentative(%r, %s/%s @ %s)"
                % (self.oid, self.replication.protocol, self.role,
                   self.host.name))
