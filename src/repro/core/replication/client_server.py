"""Client/(single) server replication (paper §7).

The simplest of the two protocols the paper ships: the object's state
lives at exactly one server; every invocation — read or write — is
forwarded there.  The client-side subobject is a pure proxy with no
local state.
"""

from __future__ import annotations

from typing import Any, Generator, List

from ..idl import Mode
from ..ids import ContactAddress
from .base import (ReplicationError, ReplicationSubobject,
                   register_protocol)

__all__ = ["ClientServerClient", "ClientServerServer"]

PROTOCOL = "client_server"


class ClientServerClient(ReplicationSubobject):
    """Forwards every invocation to the single server."""

    protocol = PROTOCOL
    role = "client"

    def __init__(self, addresses: List[ContactAddress]):
        super().__init__()
        server = self.find_role(addresses, "server")
        if server is None:
            raise ReplicationError(
                "client/server binding needs a 'server' contact address")
        self.server = server

    def invoke(self, payload: bytes, mode: Mode
               ) -> Generator[Any, Any, bytes]:
        if mode != Mode.READ:
            self.writes_forwarded += 1
        result = yield from self._invoke_remote(self.server, payload, mode)
        return result

    def handle_message(self, message: dict, ctx
                       ) -> Generator[Any, Any, dict]:
        return {"type": "error", "reason": "pure client holds no state"}
        yield  # pragma: no cover


class ClientServerServer(ReplicationSubobject):
    """Executes every invocation against the single authoritative copy.

    Tracks a write-version so caches can revalidate cheaply (a ``pull``
    carrying the current version is answered ``fresh`` instead of with
    a full state transfer).
    """

    protocol = PROTOCOL
    role = "server"

    def __init__(self):
        super().__init__()
        self.version = 0

    def handle_message(self, message: dict, ctx
                       ) -> Generator[Any, Any, dict]:
        kind = message.get("type")
        if kind == "invoke":
            mode = Mode(message.get("mode", "write"))
            if mode == Mode.READ:
                self.reads_local += 1
            else:
                self.writes_local += 1
                self.version += 1
            return {"type": "result",
                    "payload": self.control.execute(message["payload"])}
        if kind == "pull":
            if message.get("have_version", -1) >= self.version:
                return {"type": "fresh", "version": self.version}
            return {"type": "state", "version": self.version,
                    "state": self._snapshot()}
        return {"type": "error", "reason": "unsupported message %r" % kind}
        yield  # pragma: no cover


def _make_server(master):
    return ClientServerServer()


register_protocol(PROTOCOL, ClientServerClient, {"server": _make_server})
