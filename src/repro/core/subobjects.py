"""The subobject composition of a local representative (paper §3.3, Fig 1b).

A local representative is composed of four subobjects:

* **semantics** — user-defined functionality, written without any
  knowledge of distribution (:class:`SemanticsSubobject`);
* **communication** — system-provided point-to-point messaging between
  local representatives in different address spaces
  (:class:`CommunicationSubobject`);
* **replication** — keeps replica state consistent per a per-object
  strategy; sees only opaque invocation messages
  (:mod:`repro.core.replication`);
* **control** — bridges the user-defined interface of the semantics
  subobject and the standard interface of the replication subobject
  (:class:`ControlSubobject`).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..sim.rpc import ChannelPool
from ..sim.transport import ConnectionClosed, TransportError
from .idl import IdlError, Interface, Mode
from .ids import ContactAddress, ObjectId
from .marshal import (marshal_invocation, marshal_result,
                      unmarshal_invocation, unmarshal_result)

__all__ = [
    "SemanticsSubobject",
    "CommunicationSubobject",
    "ControlSubobject",
    "RemoteInvocationError",
]


class RemoteInvocationError(Exception):
    """A remote method execution failed; carries the remote fault."""


class SemanticsSubobject:
    """Base class for user-defined object functionality.

    Subclasses declare methods with :func:`repro.core.idl.read_only` /
    :func:`repro.core.idl.mutating` and implement ``snapshot_state`` /
    ``restore_state`` so replication protocols (and the Globe Object
    Server's persistence, §4) can move their state around without
    understanding it.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.interface = Interface.of(cls)

    # Subclasses override these two; state must be a packable dict.

    def snapshot_state(self) -> dict:
        """A plain-dict snapshot of the full object state."""
        raise NotImplementedError

    def restore_state(self, state: dict) -> None:
        """Replace the object state with ``state``."""
        raise NotImplementedError

    # Replication may use a lighter state than persistence: subclasses
    # can exclude master-local bookkeeping (e.g. retained old file
    # contents) from what is shipped to slaves and caches.  Defaults
    # to the full snapshot.

    def replication_state(self) -> dict:
        return self.snapshot_state()

    def restore_replication_state(self, state: dict) -> None:
        self.restore_state(state)

    # A replica that journals writes ships each one as a change set:
    # ``take_changes`` seals what changed since it was last called,
    # ``apply_changes`` replays one onto a copy, and ``squash_changes``
    # folds consecutive ones into one.  The defaults have no deltas:
    # a change set is the whole replication state.

    def take_changes(self) -> Any:
        return self.replication_state()

    def apply_changes(self, changes: Any) -> None:
        self.restore_replication_state(changes)

    def squash_changes(self, change_sets: list) -> Any:
        return change_sets[-1]


class CommunicationSubobject:
    """Point-to-point messaging to other local representatives.

    System-provided (paper: "generally … taken from a library").  It
    owns no connection: messages travel over the address space's
    :class:`~repro.sim.rpc.ChannelPool`, which keeps one multiplexed
    channel per destination endpoint for *all* the representatives
    composed there.  Repeated invocations, other representatives and
    rebinds therefore pay no reconnection (or TLS re-handshake) cost,
    and a channel that has died is reopened once, transparently.

    The pool is also the security hook: its ``channel_wrapper`` (from
    the TLS layer) runs a handshake on each fresh connection and tags
    it with the authenticated peer principal.
    """

    #: RPC method name under which Globe object servers and other
    #: replica hosts expose DSO message routing.
    DSO_RPC_METHOD = "dso_message"

    def __init__(self, world, pool: ChannelPool):
        self.world = world
        self.pool = pool
        self.messages_sent = 0

    def send_dso_message(self, address: ContactAddress, oid: ObjectId,
                         message: dict) -> Generator[Any, Any, dict]:
        """Deliver one DSO protocol message; return the reply message.

        Retries exactly once on a stale pooled channel (the peer may
        have closed it); connection failures beyond that propagate.
        """
        try:
            remote = self.world.hosts[address.host_name]
        except KeyError:
            raise TransportError("unknown host %r" % address.host_name)
        args = {"oid": oid.hex, "msg": message}
        pool = self.pool
        for attempt in (0, 1):
            channel = yield from pool.channel(remote, address.port)
            try:
                self.messages_sent += 1
                reply = yield from channel.call(self.DSO_RPC_METHOD, args)
                return reply
            except ConnectionClosed:
                pool.discard(channel)
                if attempt == 1:
                    raise
        raise AssertionError("unreachable")


class ControlSubobject:
    """Bridges user-facing calls and the replication subobject.

    Client path: marshal the invocation into an opaque message, hand it
    to the replication subobject along with its read/write mode, then
    unmarshal the returned result.  Server path: the replication
    subobject calls :meth:`execute` to run an opaque message against
    the local semantics subobject.
    """

    def __init__(self, semantics: Optional[SemanticsSubobject],
                 interface: Interface):
        self.semantics = semantics
        self.interface = interface
        self.replication = None  # wired by the local representative
        self.local_invocations = 0

    def invoke(self, method: str, args: Optional[dict] = None
               ) -> Generator[Any, Any, Any]:
        """User-facing method invocation (used via the LR)."""
        args = args or {}
        mode = self.interface.mode(method)  # raises IdlError if unknown
        payload = marshal_invocation(method, args)
        raw = yield from self.replication.invoke(payload, mode)
        result = unmarshal_result(raw)
        if isinstance(result, dict) and result.get("__fault__"):
            raise RemoteInvocationError(
                "%s: %s" % (result.get("kind"), result.get("message")))
        return result

    def execute(self, payload: bytes) -> bytes:
        """Run an opaque invocation against the local semantics.

        Returns an opaque result message.  Faults are encoded in-band
        so they can cross the wire and re-raise at the caller.
        """
        if self.semantics is None:
            raise IdlError("this representative holds no semantics state")
        method, args = unmarshal_invocation(payload)
        spec = self.interface.spec(method)
        function = getattr(self.semantics, spec.name)
        self.local_invocations += 1
        try:
            value = function(**args)
        except Exception as exc:  # noqa: BLE001 - faults cross the wire
            return marshal_result({"__fault__": True,
                                   "kind": type(exc).__name__,
                                   "message": str(exc)})
        return marshal_result(value)

    def mode_of(self, payload: bytes) -> Mode:
        """Mode of an opaque invocation (for server-side routing)."""
        method, _args = unmarshal_invocation(payload)
        return self.interface.mode(method)
