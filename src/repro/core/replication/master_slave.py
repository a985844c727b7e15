"""Master/slave replication (paper §7).

One replica is the *master*; any number of *slaves* hold copies.
Reads execute at whichever replica the client is bound to (normally
the nearest one, found via the GLS); writes are forwarded to the
master, which executes them and pushes what each one changed — one
change set, sealed under the next version — to all slaves.  A write
therefore ships what it changed, not the package it changed.

Push is asynchronous by default — the client's write completes when
the master has executed it, and slaves converge shortly after
(configure ``sync_push=True`` for write-through behaviour).  Pushes may
be lost, late, doubled or overtaken: a slave replays a change set only
onto the version just before it, and on a gap (or a push from another
incarnation of the master) it ``pull``-s what it misses, which the
master answers from its journal or, when that cannot reach back, with
whole state.  Slaves joining later, or rejoining after a reboot, fetch
whole state with a `join` message, which is also how a Globe Object
Server reconstructs replicas (§4).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from ...sim.rpc import RpcFault, RpcTimeout
from ...sim.transport import TransportError
from ..idl import Mode
from ..ids import ContactAddress
from .base import (JournalledCopy, ReplicationError, ReplicationSubobject,
                   register_protocol)

__all__ = ["MasterSlaveClient", "MasterSlaveMaster", "MasterSlaveSlave"]

PROTOCOL = "master_slave"

#: Failures that say "this replica is unreachable", not "this
#: invocation is wrong" — safe to answer with a different replica.
_TRANSIENT = (RpcTimeout, RpcFault, TransportError)


class MasterSlaveClient(ReplicationSubobject):
    """Client proxy: reads to the bound (nearest) replica, writes to
    the master (directly when its address is known, otherwise via the
    bound replica, which forwards).

    Reads are idempotent, so when the bound replica is unreachable the
    proxy fails over along the remaining (nearest-first) contact
    addresses and re-pins to whichever replica answers.  Writes never
    fail over: the master is the only authoritative copy.
    """

    protocol = PROTOCOL
    role = "client"

    def __init__(self, addresses: List[ContactAddress]):
        super().__init__()
        if not addresses:
            raise ReplicationError("no contact addresses to bind to")
        self.addresses = list(addresses)
        self.bound = addresses[0]
        self.master: Optional[ContactAddress] = self.find_role(
            addresses, "master")
        self.read_failovers = 0

    def invoke(self, payload: bytes, mode: Mode
               ) -> Generator[Any, Any, bytes]:
        if mode == Mode.READ:
            self.reads_remote += 1
            result = yield from self._read_with_failover(payload)
        else:
            self.writes_forwarded += 1
            target = self.master or self.bound
            result = yield from self._invoke_remote(target, payload, mode)
        return result

    def _read_with_failover(self, payload: bytes
                            ) -> Generator[Any, Any, bytes]:
        candidates = [self.bound] + [address for address in self.addresses
                                     if address.key() != self.bound.key()]
        last_error: Optional[Exception] = None
        for fallback, address in enumerate(candidates):
            try:
                result = yield from self._invoke_remote(
                    address, payload, Mode.READ)
            except _TRANSIENT as error:
                last_error = error
                continue
            if fallback:
                self.read_failovers += 1
                self.bound = address
            return result
        assert last_error is not None
        raise last_error

    def handle_message(self, message: dict, ctx
                       ) -> Generator[Any, Any, dict]:
        return {"type": "error", "reason": "pure client holds no state"}
        yield  # pragma: no cover


class MasterSlaveMaster(JournalledCopy):
    """The authoritative replica: applies writes, pushes change sets."""

    protocol = PROTOCOL
    role = "master"

    def __init__(self, sync_push: bool = False):
        super().__init__(version=0)
        self.sync_push = sync_push
        self.slaves: Dict[tuple, ContactAddress] = {}
        self.push_failures = 0

    def protocol_state(self) -> dict:
        return {"version": self.version, "epoch": self.epoch,
                "slaves": [address.to_wire()
                           for address in self.slaves.values()]}

    def restore_protocol_state(self, state: dict) -> None:
        # Restored from a checkpoint: a new incarnation, since writes
        # after that checkpoint may have reached slaves and been lost
        # here, and their versions are about to be issued again.
        self.epoch = state.get("epoch", 0) + 1
        self.version = state.get("version", 0)
        for wire in state.get("slaves", []):
            address = ContactAddress.from_wire(wire)
            self.slaves[address.key()] = address

    # -- local invocation (co-located callers) -----------------------------

    def invoke(self, payload: bytes, mode: Mode
               ) -> Generator[Any, Any, bytes]:
        if mode == Mode.READ:
            self.reads_local += 1
            return self.control.execute(payload)
        result = yield from self._apply_write(payload)
        return result

    # -- protocol messages ---------------------------------------------------

    def handle_message(self, message: dict, ctx
                       ) -> Generator[Any, Any, dict]:
        kind = message.get("type")
        if kind == "invoke":
            mode = Mode(message.get("mode", "write"))
            if mode == Mode.READ:
                self.reads_local += 1
                return {"type": "result",
                        "payload": self.control.execute(message["payload"])}
            payload = yield from self._apply_write(message["payload"])
            return {"type": "result", "payload": payload}
        if kind == "join":
            address = ContactAddress.from_wire(message["ca"])
            self.slaves[address.key()] = address
            return self._stamp({"type": "state", "version": self.version,
                                "state": self._snapshot()})
        if kind == "leave":
            address = ContactAddress.from_wire(message["ca"])
            self.slaves.pop(address.key(), None)
            return {"type": "ack"}
        if kind == "pull":
            return self._answer_pull(message)
        return {"type": "error", "reason": "unsupported message %r" % kind}

    # -- write path -----------------------------------------------------------

    def _apply_write(self, payload: bytes) -> Generator[Any, Any, bytes]:
        self.writes_local += 1
        result = self.control.execute(payload)
        changes = self._seal()
        if self.slaves:
            push = self._stamp({"type": "state_push",
                                "version": self.version, "deltas": changes})
            pushes = [self.lr.host.spawn(self._push_one(address, push))
                      for address in list(self.slaves.values())]
            if self.sync_push:
                for process in pushes:
                    yield process
        return result

    def _push_one(self, address: ContactAddress, push: dict) -> Generator:
        try:
            yield from self._send(address, push)
        except Exception:  # noqa: BLE001 - slave may be down; it rejoins
            self.push_failures += 1


class MasterSlaveSlave(JournalledCopy):
    """A read-serving copy that forwards writes to the master."""

    protocol = PROTOCOL
    role = "slave"

    def __init__(self, master: ContactAddress):
        super().__init__()
        self.master = master

    def start(self) -> Generator:
        """Join the master and fetch initial state."""
        my_address = self.lr.contact_address
        if my_address is None:
            raise ReplicationError("slave has no registered contact address")
        reply = yield from self._send(self.master, {
            "type": "join", "ca": my_address.to_wire()})
        if reply.get("type") != "state":
            raise ReplicationError("join did not return state")
        self._install(reply)

    def stop(self) -> None:
        # Leaving is best-effort and asynchronous; the master also
        # drops us on the first failed push.
        my_address = self.lr.contact_address
        if my_address is not None and self.lr.host.up:
            self.lr.host.spawn(self._send_leave(my_address))

    def _send_leave(self, my_address: ContactAddress) -> Generator:
        try:
            yield from self._send(self.master, {
                "type": "leave", "ca": my_address.to_wire()})
        except Exception:  # noqa: BLE001 - best effort
            pass

    def invoke(self, payload: bytes, mode: Mode
               ) -> Generator[Any, Any, bytes]:
        if mode == Mode.READ:
            self.reads_local += 1
            return self.control.execute(payload)
        self.writes_forwarded += 1
        result = yield from self._invoke_remote(self.master, payload, mode)
        return result

    def handle_message(self, message: dict, ctx
                       ) -> Generator[Any, Any, dict]:
        kind = message.get("type")
        if kind == "invoke":
            mode = Mode(message.get("mode", "write"))
            if mode == Mode.READ:
                self.reads_local += 1
                return {"type": "result",
                        "payload": self.control.execute(message["payload"])}
            self.writes_forwarded += 1
            payload = yield from self._invoke_remote(
                self.master, message["payload"], mode)
            return {"type": "result", "payload": payload}
        if kind == "state_push":
            pushed = (message.get("epoch", 0), message["version"])
            if pushed == (self.epoch, self.version + 1):
                self._apply(message["version"], message["deltas"])
            elif pushed > (self.epoch, self.version):
                # A push went missing or was overtaken, or the master
                # is a new incarnation: ask for what this copy misses.
                try:
                    yield from self._pull(self.master)
                except (ReplicationError,) + _TRANSIENT:
                    pass  # the next push asks again
            return {"type": "ack"}
        if kind == "pull":
            return self._answer_pull(message)
        return {"type": "error", "reason": "unsupported message %r" % kind}


def _make_client(addresses, **_kwargs):
    return MasterSlaveClient(addresses)


def _make_master(sync_push=False, **_kwargs):
    return MasterSlaveMaster(sync_push=sync_push)


def _make_slave(master=None, **_kwargs):
    if master is None:
        raise ReplicationError("slave role needs the master's address")
    return MasterSlaveSlave(master)


register_protocol(PROTOCOL, _make_client,
                  {"master": _make_master, "slave": _make_slave})
