"""Replication subobject framework (paper §3.3).

A replication subobject decides, per opaque invocation, where that
invocation executes and how replica state stays consistent.  All
concrete protocols speak a small common message vocabulary between
local representatives (the paper's "Globe Replication Protocol" arrows
in Figure 3):

========== ===============================================================
type       meaning
========== ===============================================================
invoke     run this opaque invocation (mode read/write) here or forward it
result     opaque result message for an ``invoke``
join       a new replica announces itself; reply carries current state
leave      a replica is going away
pull       bring me up to date from ``have_version`` (and ``epoch``)
state      whole state (version + packed state)
deltas     pull response: the change sets since ``have_version``,
           squashed into one
fresh      pull response: your copy is already current
state_push master pushes one write's change set (``version``,
           ``deltas``) to a slave
ack        acknowledgement
========== ===============================================================

Every message that names a ``version`` of a journalled copy (see
:class:`JournalledCopy`) also names the master's incarnation,
``epoch``, which is left out while it is 0.

Concrete protocols live in sibling modules; each defines client-role
and replica-role subobject classes and registers itself in
:data:`PROTOCOLS` so the implementation repository can build both sides
by name.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from ..idl import Mode
from ..ids import ContactAddress
from ..journal import Journal
from ..marshal import pack, unpack

__all__ = ["ReplicationSubobject", "JournalledCopy", "ReplicationError",
           "PROTOCOLS", "register_protocol"]


class ReplicationError(Exception):
    """Raised when a replication protocol cannot complete an operation."""


#: protocol name -> {"client": factory, "roles": {role: factory}}.  The
#: runtime builds a client from the contact addresses it bound to (and
#: a cache's ``ttl``); an object server builds a role from the master's
#: contact address, None but for a slave.
PROTOCOLS: Dict[str, dict] = {}


def register_protocol(name: str, client_factory, role_factories: dict) -> None:
    """Register a replication protocol's client and replica factories."""
    PROTOCOLS[name] = {"client": client_factory, "roles": role_factories}


class ReplicationSubobject:
    """Base class with the standard replication interface.

    Lifecycle: constructed by a factory, then ``attach``-ed to its
    local representative (which supplies control and communication
    subobjects), then optionally ``start``-ed (a generator — replicas
    use it to join their master and fetch initial state).
    """

    protocol = "?"
    role = "?"

    def __init__(self):
        # Per-replica counters: gdnbench reads state_transfers.
        self.reads_local = 0
        self.writes_local = 0
        self.writes_forwarded = 0
        self.state_transfers = 0

    # -- wiring ----------------------------------------------------------

    def attach(self, local_representative) -> None:
        self.lr = local_representative
        self.control = local_representative.control
        self.comm = local_representative.comm
        self.oid = local_representative.oid

    def start(self) -> Generator:
        """Protocol start-up (joining, initial state fetch).  A process."""
        return
        yield  # pragma: no cover - makes this a generator

    def stop(self) -> None:
        """Protocol teardown (leave messages are best-effort)."""

    # -- durable protocol state -------------------------------------------

    def protocol_state(self) -> dict:
        """Protocol bookkeeping worth persisting across a host reboot
        (version counters, peer lists).  Object servers checkpoint this
        next to the semantics state; without it a recovered master
        would forget its slaves and roll its version counter back,
        leaving slaves ignoring every future push."""
        return {}

    def restore_protocol_state(self, state: dict) -> None:
        """Reinstate persisted protocol bookkeeping after a reboot."""

    # -- the standard interface ------------------------------------------

    def invoke(self, payload: bytes, mode: Mode
               ) -> Generator[Any, Any, bytes]:
        """Route a locally issued opaque invocation; return raw result.

        Only the roles a binding creates (``client`` and ``cache``)
        take local invocations.  A replica hosted by an object
        server is reached through :meth:`handle_message`: no program
        runs its caller in the server's address space."""
        raise NotImplementedError

    def handle_message(self, message: dict, ctx
                       ) -> Generator[Any, Any, dict]:
        """Handle a protocol message from another representative."""
        raise NotImplementedError

    # -- helpers -----------------------------------------------------------

    def _send(self, address: ContactAddress, message: dict
              ) -> Generator[Any, Any, dict]:
        reply = yield from self.comm.send_dso_message(
            address, self.oid, message)
        if reply.get("type") == "error":
            raise ReplicationError(reply.get("reason", "remote error"))
        return reply

    def _invoke_remote(self, address: ContactAddress, payload: bytes,
                       mode: Mode) -> Generator[Any, Any, bytes]:
        reply = yield from self._send(address, {
            "type": "invoke", "payload": payload, "mode": mode.value})
        if reply.get("type") != "result":
            raise ReplicationError(
                "expected result, got %r" % reply.get("type"))
        return reply["payload"]

    def _snapshot(self) -> bytes:
        self.state_transfers += 1
        return pack(self.control.semantics.replication_state())

    def _restore(self, state_bytes: bytes) -> None:
        self.state_transfers += 1
        self.control.semantics.restore_replication_state(
            unpack(state_bytes))

    @staticmethod
    def find_role(addresses: List[ContactAddress], role: str
                  ) -> Optional[ContactAddress]:
        for address in addresses:
            if address.role == role:
                return address
        return None


class JournalledCopy(ReplicationSubobject):
    """A replica-role subobject holding a whole copy of the state and
    keeping it current by change sets.

    The master seals each write's change set (what the semantics'
    :meth:`~repro.core.subobjects.SemanticsSubobject.take_changes`
    returns) under the next version in its :class:`Journal`.  A copy
    replays change sets strictly in version order and journals them in
    turn, so any copy can bring further copies up to date.  A copy
    the journal cannot reach, or one that followed another incarnation
    of the master, is sent whole state.

    ``(epoch, version)`` orders copies.  The epoch is the master's
    incarnation: a master rebuilt from a checkpoint older than its
    last write re-issues that write's version for a different write,
    and only the epoch tells the two apart.
    """

    def __init__(self, version: int = -1):
        super().__init__()
        self.epoch = 0
        self.journal = Journal(version)

    @property
    def version(self) -> int:
        return self.journal.version

    @version.setter
    def version(self, version: int) -> None:
        # Moved other than by a change set: the journal no longer
        # leads here.
        self.journal.reset(version)

    def _stamp(self, message: dict) -> dict:
        """``message`` naming this copy's epoch (left out while 0)."""
        if self.epoch:
            message["epoch"] = self.epoch
        return message

    # -- answering ----------------------------------------------------------

    def _answer_pull(self, message: dict) -> dict:
        """Bring the asker from its ``(epoch, have_version)`` to here:
        ``fresh``, the change sets in between squashed into one, or
        whole state where the journal cannot reach back."""
        have = message.get("have_version", -1)
        change_sets = None
        if message.get("epoch", 0) == self.epoch:
            if have >= self.version:
                return self._stamp({"type": "fresh",
                                    "version": self.version})
            change_sets = self.journal.since(have)
        if change_sets is None:
            return self._stamp({"type": "state", "version": self.version,
                                "state": self._snapshot()})
        return self._stamp({
            "type": "deltas", "version": self.version,
            "deltas": self.control.semantics.squash_changes(change_sets)})

    # -- following ----------------------------------------------------------

    def _seal(self) -> dict:
        """Journal the changes made since the last seal as the next
        version (the master's side of a write); return them."""
        changes = self.control.semantics.take_changes()
        self.journal.append(self.version + 1, changes)
        return changes

    def _apply(self, version: int, changes: dict) -> None:
        """Replay the change set that leads from here to ``version``."""
        self.control.semantics.apply_changes(changes)
        if version == self.version + 1:
            self.journal.append(version, changes)
        else:  # squashed over several versions: nothing to journal
            self.journal.reset(version)

    def _install(self, reply: dict) -> None:
        """Replace the copy with the whole state in ``reply``."""
        self._restore(reply["state"])
        self.epoch = reply.get("epoch", 0)
        self.version = reply["version"]

    def _pull(self, address: ContactAddress) -> Generator[Any, Any, str]:
        """Ask ``address`` for what this copy misses and take it;
        return the kind of answer.  Other answers may land while this
        one is in flight, so it is judged against the copy as it
        stands when it arrives: change sets from a version the copy
        has since left are asked for again if they lead further."""
        while True:
            asked = (self.epoch, self.version)
            reply = yield from self._send(address, self._stamp(
                {"type": "pull", "have_version": self.version}))
            kind = reply.get("type")
            answered = (reply.get("epoch", 0), reply.get("version", -1))
            if kind == "state":
                if answered > (self.epoch, self.version):
                    self._install(reply)
            elif kind == "deltas":
                if (self.epoch, self.version) == asked:
                    self._apply(reply["version"], reply["deltas"])
                elif answered > (self.epoch, self.version):
                    continue
            elif kind != "fresh":
                raise ReplicationError("unexpected pull reply %r" % kind)
            return kind
