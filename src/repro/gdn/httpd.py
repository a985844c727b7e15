"""GDN-enabled HTTPDs (paper §4).

"We use URLs that have embedded in them the name of a package DSO.
The GDN-HTTPD extracts this object name and binds to the DSO.  The
HTTPD then invokes the appropriate method(s) on the package DSO's newly
created local representative.  For example, it could call
listContents() to obtain the list of files contained in the package,
which is subsequently reformatted into HTML … If the URL designates a
particular file in the package, the HTTPD calls the getFileContents()
method and sends back the returned content."

URL scheme::

    /gdn<object-name>                  package page (HTML listing)
    /gdn<object-name>/files/<path>     raw file download

The local representative installed during binding "may act as a
replica for the DSO" — realised with a caching representative whose
TTL comes from a per-object cache policy.  HTTP runs over the RPC
framing of the simulator (one ``http`` method), with an optional
server-authenticated TLS factory in front (Figure 4 arrow 1).
"""

from __future__ import annotations

import html
import urllib.parse
from typing import Callable, Dict, Generator, Optional, Tuple

from ..core.ids import ObjectId
from ..core.replication.base import ReplicationError
from ..core.runtime import BindError, Runtime
from ..core.subobjects import RemoteInvocationError
from ..gns.gns import GnsError
from ..sim.rpc import RpcContext, RpcFault, RpcServer, RpcTimeout
from ..sim.serde import encoded_size
from ..sim.transport import Host, TransportError
from ..sim.world import World

#: Failures that mean "the replica I bound to is gone or unreachable"
#: — worth one rebind-and-retry before giving up.
_REBINDABLE = (ReplicationError, RpcFault, RpcTimeout, TransportError)

__all__ = ["GdnHttpd", "HTTP_PORT", "parse_gdn_url",
           "parse_transfer_url", "render_listing"]

HTTP_PORT = 8080

#: Default freshness window for HTTPD-side caching representatives.
DEFAULT_CACHE_TTL = 300.0


#: What may follow the object name in a GDN URL.  Whichever comes
#: *first* says what the URL is; a later one is part of the file path
#: (a package may well ship ``docs/manifest/readme.txt``).
_ROUTES = ("/files/", "/manifest/", "/chunk/")


#: What each kind of GDN URL invokes on the package DSO: (method,
#: content type of the 200 reply, 404 body when the invocation fails
#: — formatted with the file path, None for a page, and object name).
_SERVED = {
    "page": ("listContents", "text/html", "no file %s in %s"),
    "file": ("getFileContents", "application/octet-stream",
             "no file %s in %s"),
    "manifest": ("getFileManifest", "application/json",
                 "no such file or chunk: %s in %s"),
    "chunk": ("getFileChunk", "application/octet-stream",
              "no such file or chunk: %s in %s"),
}


def _route(rest: str) -> Tuple[Optional[str], str, str]:
    """Split ``rest`` (a URL path less its ``/gdn``) at its first route
    marker: (marker, object name, what follows), marker None if the
    path has none."""
    marker, at = None, -1
    for candidate in _ROUTES:
        found = rest.find(candidate)
        if found >= 0 and (marker is None or found < at):
            marker, at = candidate, found
    if marker is None:
        return None, rest, ""
    return marker, rest[:at], rest[at + len(marker):]


def _gdn_target(rest: str, marker: Optional[str], object_name: str,
                tail: str) -> Tuple[str, Optional[str]]:
    """(object name, optional file path) of a page or download URL,
    from its path less ``/gdn`` and that path's :func:`_route` split."""
    if marker == "/files/":
        return object_name, tail
    return rest.rstrip("/"), None


def _transfer_target(path: str, marker: str, object_name: str, tail: str,
                     query: str) -> tuple:
    """The tuple :func:`parse_transfer_url` returns, from the
    :func:`_route` split of a ``/manifest/`` or ``/chunk/`` URL."""
    chunk_size = None
    if query:
        values = urllib.parse.parse_qs(query).get("chunk_size")
        if values:
            try:
                chunk_size = int(values[0])
            except ValueError:
                raise ValueError("bad chunk_size in %r" % path) from None
    if marker == "/manifest/":
        if not tail:
            raise ValueError("transfer URL names no file: %r" % path)
        return ("manifest", object_name, tail, None, chunk_size)
    index_text, _sep, file_path = tail.partition("/")
    if not file_path:
        raise ValueError("transfer URL names no file: %r" % path)
    try:
        index = int(index_text)
    except ValueError:
        raise ValueError("bad chunk index in %r" % path) from None
    return ("chunk", object_name, file_path, index, chunk_size)


def parse_gdn_url(path: str) -> Tuple[str, Optional[str]]:
    """Split a GDN URL path into (object name, optional file path).

    >>> parse_gdn_url("/gdn/apps/graphics/Gimp/files/bin/gimp")
    ('/apps/graphics/Gimp', 'bin/gimp')
    >>> parse_gdn_url("/gdn/apps/Gimp/files/docs/manifest/readme.txt")
    ('/apps/Gimp', 'docs/manifest/readme.txt')
    """
    if not path.startswith("/gdn/"):
        raise ValueError("not a GDN URL: %r" % path)
    rest = path[len("/gdn"):]
    return _gdn_target(rest, *_route(rest))


def parse_transfer_url(path: str) -> Optional[tuple]:
    """Parse a chunked-transfer URL; None if ``path`` is not one.

    Transfer URL scheme (rides alongside ``/files/``)::

        /gdn<object-name>/manifest/<path>[?chunk_size=N]
        /gdn<object-name>/chunk/<index>/<path>[?chunk_size=N]

    Returns ``("manifest", object_name, file_path, None, chunk_size)``
    or ``("chunk", object_name, file_path, index, chunk_size)``, with
    ``chunk_size`` None when the query string leaves it defaulted.

    >>> parse_transfer_url("/gdn/apps/Gimp/manifest/bin/gimp")
    ('manifest', '/apps/Gimp', 'bin/gimp', None, None)
    >>> parse_transfer_url("/gdn/apps/Gimp/chunk/3/bin/gimp?chunk_size=512")
    ('chunk', '/apps/Gimp', 'bin/gimp', 3, 512)
    >>> parse_transfer_url("/gdn/apps/Gimp/files/src/chunk/io.c") is None
    True
    """
    if not path.startswith("/gdn/"):
        return None
    rest, _sep, query = path[len("/gdn"):].partition("?")
    marker, object_name, tail = _route(rest)
    if marker is None or marker == "/files/":
        return None
    return _transfer_target(path, marker, object_name, tail, query)


def render_listing(object_name: str, entries: list) -> str:
    """Reformat a listContents() result into an HTML page (§4)."""
    rows = "\n".join(
        "<tr><td><a href=\"/gdn%s/files/%s\">%s</a></td>"
        "<td align=\"right\">%d</td></tr>"
        % (html.escape(object_name), html.escape(entry["path"]),
           html.escape(entry["path"]), entry["size"])
        for entry in entries)
    return (
        "<html><head><title>GDN: %s</title></head><body>\n"
        "<h1>Package %s</h1>\n"
        "<table><tr><th>File</th><th>Size</th></tr>\n%s\n</table>\n"
        "<p><i>Served by the Globe Distribution Network</i></p>"
        "</body></html>"
        % (html.escape(object_name), html.escape(object_name), rows))


class GdnHttpd:
    """A GDN-enabled HTTP daemon bound to one host."""

    def __init__(self, world: World, host: Host, runtime: Runtime,
                 name_service, port: int = HTTP_PORT,
                 channel_factory: Optional[Callable] = None,
                 cache_policy: Optional[Callable[[str],
                                                 Optional[float]]] = None,
                 search_endpoint: Optional[Tuple[str, int]] = None,
                 concurrency: Optional[int] = None,
                 service_time: float = 0.0):
        """``cache_policy(object_name)`` returns the cache TTL for a
        package (None = bind as a pure client proxy).  A GDN-proxy on
        a user machine (§4) is the same daemon: what sets it apart is
        its ``runtime``, whose channels carry no GDN credentials, so
        object servers treat it as an anonymous user."""
        self.world = world
        self.host = host
        self.runtime = runtime
        self.name_service = name_service
        self.port = port
        self.channel_factory = channel_factory
        self.cache_policy = cache_policy or (lambda _name: DEFAULT_CACHE_TTL)
        self.search_endpoint = (tuple(search_endpoint)
                                if search_endpoint else None)
        #: Finite-capacity serving: worker pool size and per-request
        #: CPU time (§3.1: multiple machines are needed for load).
        self.concurrency = concurrency
        self.service_time = service_time
        self._server: Optional[RpcServer] = None
        self.requests_served = 0
        self.bytes_served = 0
        self.errors = 0

    def start(self) -> None:
        server = RpcServer(self.host, self.port,
                           channel_factory=self.channel_factory,
                           concurrency=self.concurrency,
                           service_time=self.service_time)
        server.register("http", self._handle_http)
        server.start()
        self._server = server

    def stop(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None

    def bind_metrics(self, registry, prefix: str) -> None:
        """Expose serving counters (plus the runtime's GLS-lookup
        cache, when one is wired) as function-backed instruments."""
        registry.counter(prefix + ".requests_served",
                         fn=lambda: self.requests_served)
        registry.counter(prefix + ".bytes_served",
                         fn=lambda: self.bytes_served)
        registry.counter(prefix + ".errors", fn=lambda: self.errors)
        cache = getattr(self.runtime, "lookup_cache", None)
        if cache is not None:
            # No-op if the deployment already bound the shared
            # per-host cache under its canonical prefix.
            cache.bind_metrics(registry, prefix + ".gls_cache")

    # -- request handling ------------------------------------------------------

    def _handle_http(self, ctx: RpcContext, args: dict) -> Generator:
        self.requests_served += 1
        method = args.get("method", "GET")
        path = args.get("path", "/")
        if method != "GET":
            self.errors += 1
            return _response(405, "method not allowed")
        if path.startswith("/gdn-search"):
            reply = yield from self._handle_search(path)
            return reply
        if not path.startswith("/gdn/"):
            self.errors += 1
            return _response(404, "not a GDN URL: %s" % path)
        # Routed once; both kinds of URL are read off the one split.
        rest, sep, query = path[len("/gdn"):].partition("?")
        marker, object_name, tail = _route(rest)
        if marker is not None and marker != "/files/":
            try:
                kind, object_name, file_path, index, chunk_size = (
                    _transfer_target(path, marker, object_name, tail, query))
            except ValueError:
                self.errors += 1
                return _response(404, "bad transfer URL: %s" % path)
            args = {"path": file_path}
            if kind == "chunk":
                args["index"] = index
            if chunk_size is not None:
                args["chunk_size"] = chunk_size
            reply = yield from self._serve(kind, object_name, args)
            return reply
        # A query string is no part of a page or download URL's
        # syntax: it stays on the end of whatever the path names.
        object_name, file_path = _gdn_target(
            rest + sep + query, marker, object_name, tail + sep + query)
        if file_path is None:
            reply = yield from self._serve("page", object_name, {})
        else:
            reply = yield from self._serve("file", object_name,
                                           {"path": file_path})
        return reply

    def _serve(self, kind: str, object_name: str, args: dict) -> Generator:
        """Serve a package page, a file, or a chunked transfer's
        manifest or chunk (``kind``, a key of :data:`_SERVED`).

        Every kind takes the same binding/rebind discipline, so a
        chunk fetch transparently fails over to another replica as a
        whole-file GET does — the property resumable downloads lean on
        mid-crash.
        """
        try:
            oid_hex = yield from self.name_service.resolve(object_name)
        except GnsError:
            self.errors += 1
            return _response(404, "unknown package %s" % object_name)
        method, content_type, missing = _SERVED[kind]
        try:
            value = yield from self._invoke_with_rebind(
                ObjectId.from_hex(oid_hex), self.cache_policy(object_name),
                method, args)
        except BindError:
            self.errors += 1
            return _response(503, "package currently unreachable")
        except _REBINDABLE:
            self.errors += 1
            return _response(503, "package replicas unreachable")
        except RemoteInvocationError:
            self.errors += 1
            return _response(404, missing % (args.get("path"), object_name))
        if kind == "page":
            value = render_listing(object_name, value)
        self.bytes_served += (encoded_size(value) if kind == "manifest"
                              else len(value))
        return _response(200, value, content_type=content_type)

    def _handle_search(self, path: str) -> Generator:
        """Attribute-based search (§8): ``/gdn-search?category=graphics``.

        Queries the search service and renders matching packages as a
        page of links into the GDN namespace.
        """
        if self.search_endpoint is None:
            self.errors += 1
            return _response(503, "no search service configured")
        parsed = urllib.parse.urlparse(path)
        query = {key: values[0] for key, values
                 in urllib.parse.parse_qs(parsed.query).items()}
        from ..sim import rpc as _rpc
        host_name, port = self.search_endpoint
        target = self.world.hosts[host_name]
        try:
            reply = yield from _rpc.call(
                self.host, target, port, "search", {"query": query},
                channel_wrapper=self.runtime.pool.channel_wrapper)
        except _rpc.RpcError:
            self.errors += 1
            return _response(503, "search service unreachable")
        matches = reply.get("matches", [])
        items = "\n".join(
            "<li><a href=\"/gdn%s\">%s</a></li>"
            % (html.escape(name), html.escape(name)) for name in matches)
        body = ("<html><head><title>GDN search</title></head><body>\n"
                "<h1>%d package(s) matching %s</h1>\n<ul>\n%s\n</ul>"
                "</body></html>"
                % (len(matches), html.escape(repr(query)), items))
        self.bytes_served += len(body)
        return _response(200, body, content_type="text/html")

    def _invoke_with_rebind(self, oid, ttl, method: str,
                            args: dict) -> Generator:
        """Invoke through the (possibly cached) binding; on transport
        or replication failure, rebind once via a fresh GLS lookup and
        retry — the replica may have moved or been removed (§3.4
        bindings are soft state)."""
        representative = yield from self.runtime.bind(oid, cache_ttl=ttl)
        try:
            value = yield from representative.invoke(method, args)
            return value
        except _REBINDABLE:
            representative = yield from self.runtime.bind(
                oid, cache_ttl=ttl, refresh=True)
            value = yield from representative.invoke(method, args)
            return value


def _response(status: int, body, content_type: str = "text/plain") -> dict:
    return {"status": status, "body": body,
            "headers": {"content-type": content_type,
                        "server": "GDN-HTTPD/1.0"}}
