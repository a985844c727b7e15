"""Attribute-based package search (paper §2/§8, future work implemented).

"we would like the GDN to support some form of attribute-based search,
such that people can look for a software package with some specific
functionality" (§5); §8 lists "a more powerful mechanism for
attribute-based search" as a planned functional addition.

The search service is a directory daemon: moderator tools register
each package's attributes (category, description keywords, licence…)
when they create it and unregister it when they remove it, and anyone
can query by attribute equality or keyword.  Queries return object names, which then resolve
through the normal GNS → GLS → bind path — search never bypasses the
naming architecture.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from ..sim.rpc import RpcContext, RpcServer
from ..sim.transport import Host

__all__ = ["SearchService", "SEARCH_PORT"]

SEARCH_PORT = 7300


class SearchService:
    """An inverted index over package attributes."""

    def __init__(self, host: Host, port: int = SEARCH_PORT,
                 channel_factory: Optional[Callable] = None,
                 authorizer: Optional[Callable[[RpcContext], bool]] = None):
        self.host = host
        self.port = port
        self.channel_factory = channel_factory
        #: Gate for register/unregister; queries are always open.
        self.authorizer = authorizer
        #: object name -> attributes.
        self._attributes: Dict[str, Dict[str, str]] = {}
        #: (key, value) -> set of object names.
        self._index: Dict[tuple, Set[str]] = {}
        self._server: Optional[RpcServer] = None
        self.rejected = 0

    def start(self) -> None:
        server = RpcServer(self.host, self.port,
                           channel_factory=self.channel_factory)
        server.register("register", self._handle_register)
        server.register("unregister", self._handle_unregister)
        server.register("search", self._handle_search)
        server.start()
        self._server = server

    def stop(self) -> None:
        if self._server is not None:
            self._server.stop()

    # -- index maintenance ---------------------------------------------------

    def _authorize(self, ctx: RpcContext) -> None:
        if self.authorizer is not None and not self.authorizer(ctx):
            self.rejected += 1
            raise PermissionError(
                "principal %r may not modify the search index"
                % (ctx.peer_principal,))

    def _unindex(self, name: str) -> None:
        for key, value in self._attributes.get(name, {}).items():
            names = self._index.get((key, value.lower()))
            if names is not None:
                names.discard(name)
                if not names:
                    del self._index[(key, value.lower())]

    def _handle_register(self, ctx: RpcContext, args: dict) -> dict:
        self._authorize(ctx)
        name = args["name"]
        attributes = {str(k): str(v)
                      for k, v in args.get("attributes", {}).items()}
        self._unindex(name)
        self._attributes[name] = attributes
        for key, value in attributes.items():
            self._index.setdefault((key, value.lower()), set()).add(name)
        return {"indexed": name, "attributes": len(attributes)}

    def _handle_unregister(self, ctx: RpcContext, args: dict) -> dict:
        self._authorize(ctx)
        name = args["name"]
        self._unindex(name)
        existed = self._attributes.pop(name, None) is not None
        return {"removed": existed}

    # -- queries -----------------------------------------------------------------

    def _handle_search(self, ctx: RpcContext, args: dict) -> dict:
        """Equality query: all packages matching every given attribute.

        ``{"query": {"category": "graphics"}}`` → sorted object names.
        """
        query = args.get("query", {})
        if not query:
            return {"matches": sorted(self._attributes)}
        candidate_sets: List[Set[str]] = []
        for key, value in query.items():
            candidate_sets.append(
                set(self._index.get((str(key), str(value).lower()), set())))
        matches = set.intersection(*candidate_sets) if candidate_sets \
            else set()
        return {"matches": sorted(matches)}
