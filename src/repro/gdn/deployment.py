"""Whole-GDN deployment builder (Figure 3, end to end).

Wires every system of the reproduction together the way the paper's
architecture diagram does: DNS infrastructure carrying the GDN Zone,
the GLS directory-node tree, implementation repositories, a fleet of
Globe Object Servers, GDN-enabled HTTPDs (colocated with the object
servers in the first versions, §4), GDN proxies on user machines,
the GNS Naming Authority, moderator tools, and browsers — under the
§6.2/§6.3 security configuration when ``secure=True`` (two-way TLS
between GDN hosts, server-side TLS toward user machines, TSIG on zone
updates, HMAC-authenticated GLS registrations).

A deployment is data: a spec (JSON values only) says what exists
before the first request and where each part runs, and
:meth:`GdnDeployment.from_spec` builds it.  :func:`standard_spec` is
the paper's baseline layout.  Actors that join during a run — browsers,
proxies, maintainers, a late object server — are added to the built
deployment with its ``add_*`` methods.

Each daemon's construction below is its boot, installed on its host
(:meth:`~repro.sim.transport.Host.install`): a restarted host runs it
again, and the deployment's containers hold the incarnation now.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Generator, List, Optional, Union

from ..core.repository import Implementation, ImplementationRepository
from ..core.runtime import Runtime
from ..gls.tree import GlsTree
from ..gls.service import GlsClient
from ..gns.authority import NamingAuthority
from ..gns.dns.records import ResourceRecord, RRType
from ..gns.dns.resolver import CachingResolver
from ..gns.dns.server import DNS_PORT, AuthoritativeServer
from ..gns.dns.tsig import TsigKey, TsigKeyring
from ..gns.dns.zone import Zone
from ..gns.gns import DEFAULT_GDN_ZONE, GlobeNameService
from ..gos.server import DEFAULT_GOS_PORT, GlobeObjectServer
from ..security.acl import GdnPolicy, PrincipalRegistry, Role, role_attribute
from ..security.certs import CertificateAuthority, Credentials
from ..security.tls import client_wrapper, server_factory
from ..sim.network import LinkParameters
from ..sim.topology import Domain, Topology
from ..sim.transport import Host
from ..sim.world import World
from .browser import Browser, nearest_access_point
from .cache import GlsLookupCache
from .httpd import HTTP_PORT, GdnHttpd
from .moderator import ModeratorTool
from .package import PACKAGE_IMPL_ID, PackageSemantics
from .search import SearchService

__all__ = ["GdnDeployment", "BrowserPool", "standard_spec"]

#: The constructor's options a spec sets by name.
OPTION_KEYS = ("seed", "secure", "batch_window", "gls_cache")
#: A spec's keys: the four ``Topology.balanced`` counts, the options, and
#: the parts placed before the first request (GOS and moderator: name ->
#: site; HTTPD: name -> :data:`HTTPD_KEYS`).
SPEC_KEYS = ("topology",) + OPTION_KEYS + ("gos", "httpds", "moderators")
#: A site or the GOS to colocate with, then options; ``cache_ttl`` is
#: the TTL every object is cached for (None: nothing is cached).
HTTPD_KEYS = ("site", "colocate_with", "binding_ttl", "concurrency",
              "service_time", "cache_ttl")


def standard_spec(regions: int, countries: int, cities: int,
                  sites: int) -> dict:
    """The paper's "machines all over the world" baseline on
    ``Topology.balanced(regions, countries, cities, sites)``: one GOS
    and a colocated HTTPD on each region's first site, named
    ``gos-<region>-0`` and ``httpd-<region>-0``."""
    spec = {"topology": [regions, countries, cities, sites],
            "gos": {}, "httpds": {}}
    for index in range(regions):
        gos = "gos-r%d-0" % index
        spec["gos"][gos] = "r%d/c0/m0/s0" % index
        spec["httpds"]["httpd-r%d-0" % index] = {"colocate_with": gos}
    return spec


def _check_data(value, where: str) -> None:
    """Raise ValueError at the first part of ``value`` that is not JSON
    data: dicts, lists, strings, numbers, booleans and None."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            _check_data(item, "%s.%s" % (where, key))
    elif value is not None and not isinstance(value, (str, int, float)):
        raise ValueError("%s: %r is not JSON data" % (where, value))


def _check_keys(entry: dict, known: tuple, where: str) -> None:
    for key in entry:
        if key not in known:
            raise ValueError("%s.%s: unknown key" % (where, key))


def _check_spec(spec: dict) -> None:
    """Raise ValueError naming the offending key of a malformed spec."""
    _check_data(spec, "spec")
    _check_keys(spec, SPEC_KEYS, "spec")
    for name, httpd in spec.get("httpds", {}).items():
        where = "spec.httpds.%s" % name
        _check_keys(httpd, HTTPD_KEYS, where)
        if ("site" in httpd) == ("colocate_with" in httpd):
            raise ValueError("%s: needs exactly one of site and "
                             "colocate_with" % where)
        gos = httpd.get("colocate_with")
        if gos is not None and gos not in spec.get("gos", {}):
            raise ValueError("%s.colocate_with: the spec names no GOS %r"
                             % (where, gos))


class GdnDeployment:
    """One fully wired Globe Distribution Network."""

    def __init__(self, topology: Optional[Topology] = None, seed: int = 0,
                 secure: bool = True, batch_window: float = 0.2,
                 link_params: Optional[LinkParameters] = None,
                 gls_cache: Optional[Dict] = None,
                 retry_policy=None):
        """``secure`` gives each GDN host, moderator and maintainer
        one certificate for its role (:meth:`_principal`) and puts
        every channel under TLS (:meth:`_server_tls`, :meth:`_client_tls`).

        ``gls_cache`` turns on the flash-crowd GLS-lookup cache for
        every GDN host: a dict of keyword options for
        :class:`~repro.gdn.cache.GlsLookupCache` (``{}`` = defaults,
        e.g. ``{"ttl": 30.0, "serve_stale": True}``).  ``None`` (the
        default) keeps the direct-lookup path byte-identical to the
        uncached reference deployment.

        ``retry_policy`` (a :class:`~repro.sim.retry.RetryPolicy`)
        governs every GLS client stub created by this deployment —
        e.g. ``ExponentialBackoff(...)`` desynchronizes lookup retries
        during partitions.  ``None`` gives each stub its UDP client's
        fixed discipline: an 8 s timeout and two immediate retries."""
        self.world = World(topology=topology or Topology.balanced(2, 2, 2, 2),
                           params=link_params, seed=seed)
        self.secure = secure
        self.zone = DEFAULT_GDN_ZONE

        # -- security infrastructure (§6) --------------------------------
        self.ca: Optional[CertificateAuthority] = None
        self.registry: Optional[PrincipalRegistry] = None
        self.policy: Optional[GdnPolicy] = None
        self.gls_key: Optional[bytes] = None
        self._credentials: Dict[str, Credentials] = {}
        if secure:
            pki_rng = self.world.rng_for("gdn-pki")
            self.ca = CertificateAuthority("gdn-ca", pki_rng)
            self.registry = PrincipalRegistry()
            self.policy = GdnPolicy(self.registry)
            # Browsers carry only the root certificate (trust anchor).
            self.public_trust = Credentials.issue_for(
                "public-trust", self.ca, pki_rng)
            self.gls_key = b"gdn-gls-shared-key"
        self.tsig_key = TsigKey("gdn-key", b"gdn-zone-update-secret")
        self.retry_policy = retry_policy

        # -- naming + location infrastructure -------------------------------
        self._build_dns()
        # One root subnode per region, each on its region's first site.
        self.gls = GlsTree(self.world, partition={"": len(self._regions())},
                           auth_key=self.gls_key)
        self.repository = ImplementationRepository(self.world)
        self.repository.register(Implementation(
            PACKAGE_IMPL_ID, PackageSemantics, code_size=80_000))
        for index, region in enumerate(self._regions()):
            self.repository.add_repository_host(self.world.host(
                "implrepo-%d" % index, self._first_site(region)))
        first_site = self._first_site(self._regions()[0])
        authority = self.world.host("gns-authority", first_site)
        authority.install(lambda: self._keep("authority", NamingAuthority(
            self.world, authority, primary=self.dns_primary.endpoint,
            tsig_key=self.tsig_key, zone=self.zone,
            channel_factory=self._server_tls(authority, "required"),
            authorizer=self.policy and self.policy.authority_authorizer,
            batch_window=batch_window)))
        search = self.world.host("gdn-search", first_site)
        search.install(lambda: self._keep("search", SearchService(
            search, channel_factory=self._server_tls(search, "optional"),
            authorizer=self.policy and self.policy.authority_authorizer)))

        # -- flash-crowd serving layer (GLS-lookup cache) ------------------
        self._cache_options = None if gls_cache is None else dict(gls_cache)
        self.lookup_caches: Dict[str, GlsLookupCache] = {}

        # -- application component registries -----------------------------------
        self.object_servers: Dict[str, GlobeObjectServer] = {}
        self.httpds: List[GdnHttpd] = []
        self.moderators: Dict[str, ModeratorTool] = {}

    @classmethod
    def from_spec(cls, spec: dict) -> "GdnDeployment":
        """Build the deployment ``spec`` describes (plain JSON data,
        keys :data:`SPEC_KEYS`), e.g.::

            {"topology": [2, 2, 1, 2], "seed": 7, "secure": False,
             "gos": {"gos-0": "r0/c0/m0/s0"},
             "httpds": {"ap": {"site": "r0/c0/m0/s1", "cache_ttl": None}},
             "moderators": {"mod": "r0/c0/m0/s1"}}

        The object servers, then the HTTPDs (keys :data:`HTTPD_KEYS`),
        in spec order; then the initial zone transfers; then the
        moderators, found in :attr:`moderators` by name.  A key left
        out takes the constructor's or :meth:`add_httpd`'s default.
        Raises ValueError naming the offending key of a malformed
        spec, before anything is built."""
        _check_spec(spec)
        options = {key: spec[key] for key in OPTION_KEYS if key in spec}
        if "topology" in spec:
            options["topology"] = Topology.balanced(*spec["topology"])
        deployment = cls(**options)
        for name, site in spec.get("gos", {}).items():
            deployment.add_gos(name, site)
        for name, httpd in spec.get("httpds", {}).items():
            httpd = dict(httpd)
            if "cache_ttl" in httpd:
                ttl = httpd.pop("cache_ttl")
                httpd["cache_policy"] = lambda _name, ttl=ttl: ttl
            deployment.add_httpd(name, **httpd)
        deployment.initial_sync()
        for name, site in spec.get("moderators", {}).items():
            deployment.add_moderator(name, site)
        return deployment

    # -- infrastructure construction -----------------------------------------

    def _keep(self, attr: str, daemon):
        """Start ``daemon`` and keep it as ``self.<attr>``."""
        daemon.start()
        setattr(self, attr, daemon)
        return daemon

    @property
    def metrics(self):
        """The world's :class:`MetricsRegistry` — every component added
        through this deployment binds its instruments here."""
        return self.world.metrics

    def _regions(self) -> List[Domain]:
        return list(self.world.topology.world.children.values())

    @staticmethod
    def _first_site(domain: Domain) -> Domain:
        return next(domain.sites())

    def _build_dns(self) -> None:
        """The root and TLD servers, the GDN Zone's primary and one
        secondary per further region, each installed on its host."""
        world = self.world
        regions = self._regions()
        keyring = TsigKeyring()
        keyring.add(self.tsig_key)
        tld = self.zone.split(".")[-1]
        root = world.host("dns-root", self._first_site(regions[0]))
        tld_host = world.host("dns-tld", self._first_site(
            regions[min(1, len(regions) - 1)]))
        primary = world.host("dns-gdn-primary", self._first_site(regions[0]))
        secondaries = [world.host("dns-gdn-sec%d" % index,
                                  self._first_site(region))
                       for index, region in enumerate(regions[1:], start=1)]
        self.dns_secondaries = [None] * len(secondaries)

        def boot(host: Host, attr: str, origin: Optional[str], delegate,
                 ttl: int) -> AuthoritativeServer:
            """The name server on ``host``, kept as ``self.<attr>``: the
            primary of ``origin``, delegating its child zone to the
            ``delegate`` hosts, or a secondary of the GDN Zone."""
            gdn_zone = host is primary or origin is None
            server = AuthoritativeServer(
                world, host, keyring=keyring if gdn_zone else None)
            if origin is None:
                server.add_secondary_zone(self.zone,
                                          (primary.name, DNS_PORT))
                self.dns_secondaries[secondaries.index(host)] = server
            else:
                zone = Zone(origin, primary_host=host.name)
                child = tld if host is root else self.zone
                for target in delegate:
                    zone.add_record(ResourceRecord(child, RRType.NS, ttl,
                                                   target.name))
                server.add_primary_zone(zone, secondaries=[
                    (sec.name, DNS_PORT) for sec in secondaries]
                    if gdn_zone else None)
                setattr(self, attr, server)
            server.start()
            return server

        root.install(partial(boot, root, "dns_root", "", [tld_host], 86400))
        for host in secondaries:
            host.install(partial(boot, host, "dns_secondaries", None, (), 0))
        tld_host.install(partial(boot, tld_host, "dns_tld", tld,
                                 [primary] + secondaries, 3600))
        primary.install(partial(boot, primary, "dns_primary", self.zone, [], 0))
        self.root_hints = [(root.name, DNS_PORT)]

    # -- principals (§6.1) ---------------------------------------------------

    def _principal(self, name: str, role: Role) -> Optional[Credentials]:
        """``name``'s certificate for ``role``, issued on first use
        (None when the deployment is not secured).  Every role but
        MAINTAINER is granted in the registry with it; a maintainer's
        rights are its package grants (:meth:`grant_maintainer`)."""
        if not self.secure:
            return None
        credentials = self._credentials.get(name)
        if credentials is None:
            credentials = Credentials.issue_for(
                name, self.ca, self.world.rng_for("cred-%s" % name),
                role_attribute(role))
            if role is not Role.MAINTAINER:
                self.registry.grant(name, role)
            self._credentials[name] = credentials
        return credentials

    def _server_tls(self, host: Host, client_auth: str
                    ) -> Optional[Callable]:
        """The channel factory of a GDN host's service: TLS under the
        host's GDN_HOST certificate, ``client_auth`` toward callers."""
        credentials = self._principal(host.name, Role.GDN_HOST)
        if credentials is None:
            return None
        return server_factory(credentials, client_auth=client_auth)

    def _client_tls(self, name: Optional[str], role: Role
                    ) -> Optional[Callable]:
        """The channel wrapper of ``name``'s outbound channels: two-way
        TLS under its ``role`` certificate, or — for an anonymous user
        machine (``name`` None, ``role`` USER) — server-auth TLS."""
        if not self.secure:
            return None
        if name is None:
            return client_wrapper(trust=self.public_trust)
        return client_wrapper(credentials=self._principal(name, role))

    # -- component factories ------------------------------------------------------

    def _gls_client(self, host: Host, authenticated: bool) -> GlsClient:
        return GlsClient(self.world, host, self.gls,
                         auth_key=self.gls_key if authenticated else None,
                         retry_policy=self.retry_policy)

    def _lookup_cache(self, host: Host, authenticated: bool
                      ) -> Optional[GlsLookupCache]:
        """The host's GLS-lookup cache (None when caching is off).

        One cache per host, shared by every component there: wire
        lists are nearest-first *per fetching host*, so per-host is
        the widest safe sharing — and it means a colocated GOS's
        register/unregister invalidates the very entry its HTTPD
        serves, instead of waiting out a TTL.  The first component to
        ask installs it, over a GLS client of its own."""
        if self._cache_options is None:
            return None
        if host.name not in self.lookup_caches:
            def boot() -> GlsLookupCache:
                cache = GlsLookupCache(
                    self.world.sim, self._gls_client(host, authenticated),
                    **self._cache_options)
                self.lookup_caches[host.name] = cache
                return cache

            host.install(boot)
            GlsLookupCache.bind_metrics(
                self.world.metrics, "gls_cache.%s" % host.name,
                lambda: self.lookup_caches[host.name])
        return self.lookup_caches[host.name]

    def _runtime(self, host: Host, gdn_host: bool,
                 binding_ttl: Optional[float] = None) -> Runtime:
        """An HTTPD's (``gdn_host``) or a user-machine proxy's runtime."""
        wrapper = (self._client_tls(host.name, Role.GDN_HOST) if gdn_host
                   else self._client_tls(None, Role.USER))
        cache = self._lookup_cache(host, authenticated=gdn_host)
        client = (self._gls_client(host, authenticated=gdn_host)
                  if cache is None else cache.upstream)
        return Runtime(self.world, host, client, self.repository,
                       channel_wrapper=wrapper, binding_ttl=binding_ttl,
                       lookup_cache=cache)

    def _tool_runtime(self, host: Host, role: Role) -> Runtime:
        """A moderator's or maintainer's runtime: channels under its
        ``role`` certificate, unauthenticated GLS lookups, no cache."""
        return Runtime(self.world, host,
                       self._gls_client(host, authenticated=False),
                       self.repository,
                       channel_wrapper=self._client_tls(host.name, role))

    def _name_service(self, host: Host) -> GlobeNameService:
        resolver = CachingResolver(self.world, host, self.root_hints)
        return GlobeNameService(resolver, zone=self.zone)

    def add_gos(self, name: str, site: Union[str, Domain],
                port: int = DEFAULT_GOS_PORT) -> GlobeObjectServer:
        """Add a Globe Object Server at ``site``."""
        host = self.world.host(name, site)

        def boot() -> GlobeObjectServer:
            cache = self._lookup_cache(host, authenticated=True)
            gos = GlobeObjectServer(
                self.world, host, self.repository,
                self._gls_client(host, authenticated=True)
                if cache is None else cache, port=port,
                channel_factory=self._server_tls(host, "optional"),
                channel_wrapper=self._client_tls(host.name, Role.GDN_HOST),
                authorizer=self.policy and self.policy.gos_authorizer)
            gos.start()
            self.object_servers[name] = gos
            return gos

        gos = host.install(boot)
        self.metrics.counter("gos.%s.requests_served" % name, fn=lambda:
                             self.object_servers[name].requests_served)
        self.repository.preload(host, PACKAGE_IMPL_ID)
        return gos

    def add_httpd(self, name: str, site: Union[str, Domain, None] = None,
                  colocate_with: Optional[str] = None,
                  port: int = HTTP_PORT,
                  cache_policy: Optional[Callable] = None,
                  binding_ttl: Optional[float] = 300.0,
                  concurrency: Optional[int] = None,
                  service_time: float = 0.0) -> GdnHttpd:
        """Add a GDN-enabled HTTPD (optionally on a GOS host, §4).

        ``binding_ttl`` makes the daemon's DSO bindings soft state, so
        it periodically re-consults the GLS and notices replicas added
        or moved since it first bound."""
        if colocate_with is not None:
            host = self.object_servers[colocate_with].host
        elif site is not None:
            host = self.world.host(name, site)
        else:
            raise ValueError("need a site or a GOS to colocate with")
        index = len(self.httpds)
        self.httpds.append(None)

        def boot() -> GdnHttpd:
            httpd = GdnHttpd(self.world, host,
                             self._runtime(host, gdn_host=True,
                                           binding_ttl=binding_ttl),
                             self._name_service(host), port=port,
                             channel_factory=self._server_tls(host, "none"),
                             cache_policy=cache_policy,
                             search_endpoint=(self.search.host.name,
                                              self.search.port),
                             concurrency=concurrency,
                             service_time=service_time)
            httpd.start()
            self.httpds[index] = httpd
            return httpd

        httpd = host.install(boot)
        for count in ("bytes_served", "errors"):
            self.metrics.counter(
                "httpd.%s.%s" % (name, count),
                fn=lambda count=count: getattr(self.httpds[index], count))
        return httpd

    def add_proxy(self, name: str, site: Union[str, Domain],
                  port: int = HTTP_PORT) -> GdnHttpd:
        """Add a GDN-proxy on a user machine (§4): same software, no
        GDN credentials, plain HTTP toward the local browser."""
        host = self.world.host(name, site)

        def boot() -> GdnHttpd:
            proxy = GdnHttpd(self.world, host,
                             self._runtime(host, gdn_host=False),
                             self._name_service(host), port=port)
            proxy.start()
            return proxy

        return host.install(boot)

    def add_moderator(self, name: str, site: Union[str, Domain]
                      ) -> ModeratorTool:
        """Add a moderator (tool + credentials + registry entry)."""
        host = self.world.host(name, site)

        def boot() -> ModeratorTool:
            tool = ModeratorTool(
                self.world, host, self._tool_runtime(host, Role.MODERATOR),
                self.object_servers,
                (self.authority.host.name, self.authority.port),
                self._name_service(host),
                search_endpoint=(self.search.host.name, self.search.port))
            self.moderators[name] = tool
            return tool

        return host.install(boot)

    def add_maintainer(self, name: str, site: Union[str, Domain],
                       maintains: Optional[List[str]] = None):
        """Add a §2 maintainer: content rights on specific packages.

        ``maintains`` lists OIDs (hex) this principal may modify; more
        can be granted later with ``grant_maintainer``.
        """
        from .maintainer import MaintainerTool

        host = self.world.host(name, site)
        for oid_hex in maintains or []:
            self.grant_maintainer(name, oid_hex)
        return host.install(lambda: MaintainerTool(
            host, self._tool_runtime(host, Role.MAINTAINER),
            self._name_service(host)))

    def grant_maintainer(self, principal: str, oid_hex: str) -> None:
        """Administrator action: extend a maintainer's package set."""
        if self.registry is not None:
            self.registry.grant_package(principal, oid_hex)

    def add_browser(self, name: str, site: Union[str, Domain]) -> Browser:
        """Add a user browser, bound to the nearest access point."""
        host = self.world.host(name, site)
        access_point = nearest_access_point(host, self.httpds)
        browser = Browser(self.world, host, access_point,
                          channel_wrapper=self._client_tls(None, Role.USER))
        return browser

    def chunked_downloader(self, policy=None, budget=None,
                           resume: bool = True,
                           chunk_size: Optional[int] = None):
        """A :class:`~repro.gdn.transfer.ChunkedDownloader` for this
        deployment's browsers, instruments bound in the world registry
        under ``transfer``."""
        from .transfer import ChunkedDownloader

        downloader = ChunkedDownloader(self.world, policy=policy,
                                       budget=budget, resume=resume,
                                       chunk_size=chunk_size)
        downloader.bind_metrics(self.world.metrics, "transfer")
        return downloader

    def browser_pool(self, prefix: str) -> "BrowserPool":
        """One long-lived browser per site, created on first use.

        Load drivers issue many requests per site; reusing a browser
        (and so its access-point channel) per site is how real users
        behave and keeps host creation out of the request hot path.
        """
        return BrowserPool(self, prefix)

    def gos_by_region(self) -> Dict[str, str]:
        """region path -> one object-server name (for ScenarioAdvisor)."""
        mapping: Dict[str, str] = {}
        for name, gos in sorted(self.object_servers.items()):
            region = gos.host.site.region()
            mapping.setdefault(region.path, name)
        return mapping

    # -- execution helpers -------------------------------------------------------

    def run(self, generator: Generator, host: Optional[Host] = None,
            limit: float = 1e7):
        """Run a generator as a process to completion."""
        process = (host.spawn(generator) if host is not None
                   else self.world.sim.process(generator))
        return self.world.run_until(process, limit=limit)

    def settle(self, duration: float = 5.0) -> None:
        """Let asynchronous machinery (pushes, transfers) drain."""
        self.world.run(until=self.world.now + duration)

    def initial_sync(self) -> None:
        """Complete initial DNS secondary transfers — the one time each
        secondary is sent the whole GDN Zone; every update after it
        reaches them as the records it changed."""
        for secondary in self.dns_secondaries:
            self.run(secondary.initial_transfers(), host=secondary.host)


class BrowserPool:
    """A site -> :class:`Browser` cache shared by load drivers.

    Call it with a site (a Domain or site path) to get that site's
    long-lived browser, creating it on first use under a
    ``prefix``-derived host name; ``close()`` closes all of them.
    """

    def __init__(self, deployment: GdnDeployment, prefix: str):
        self._deployment = deployment
        self._prefix = prefix
        self._browsers: Dict[str, Browser] = {}

    def __call__(self, site: Union[str, Domain]) -> Browser:
        path = site if isinstance(site, str) else site.path
        browser = self._browsers.get(path)
        if browser is None:
            browser = self._deployment.add_browser(
                "%s-%s" % (self._prefix, path.replace("/", "-")), path)
            self._browsers[path] = browser
        return browser

    def close(self) -> None:
        for browser in self._browsers.values():
            browser.close()
