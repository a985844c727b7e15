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

Experiments and examples construct one :class:`GdnDeployment`, add
components at chosen sites, and drive simulated users against it.
"""

from __future__ import annotations

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
from ..gns.gns import DEFAULT_GDN_ZONE, GlobeNameService
from ..gos.server import DEFAULT_GOS_PORT, GlobeObjectServer
from ..security.acl import GdnPolicy, PrincipalRegistry, Role, role_attribute
from ..security.certs import CertificateAuthority, Credentials
from ..security.tls import client_wrapper, server_factory
from ..sim.network import LinkParameters
from ..sim.stable import DiskStore
from ..sim.topology import Domain, Topology
from ..sim.transport import Host
from ..sim.world import World
from .browser import Browser, nearest_access_point
from .cache import GlsLookupCache
from .httpd import HTTP_PORT, GdnHttpd
from .moderator import ModeratorTool
from .package import PACKAGE_IMPL_ID, PackageSemantics
from .search import SearchService

__all__ = ["GdnDeployment", "BrowserPool"]


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
        during partitions.  ``None`` keeps the fixed legacy discipline
        byte-identical."""
        self.world = World(topology=topology or Topology.balanced(2, 2, 2, 2),
                           params=link_params, seed=seed)
        self.secure = secure
        self.disk = DiskStore()
        self.zone = DEFAULT_GDN_ZONE

        # -- security infrastructure (§6) --------------------------------
        self.ca: Optional[CertificateAuthority] = None
        self.registry: Optional[PrincipalRegistry] = None
        self.policy: Optional[GdnPolicy] = None
        self.public_trust: Optional[Credentials] = None
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
        self.gls = GlsTree(self.world, auth_key=self.gls_key, disk=self.disk)
        self.repository = ImplementationRepository(self.world)
        self.repository.register(Implementation(
            PACKAGE_IMPL_ID, PackageSemantics, code_size=80_000))
        for index, region in enumerate(self._regions()):
            self.repository.add_repository_host(self.world.host(
                "implrepo-%d" % index, self._first_site(region)))
        first_site = self._first_site(self._regions()[0])
        host = self.world.host("gns-authority", first_site)
        self.authority = NamingAuthority(
            self.world, host, primary=self.dns_primary.endpoint,
            tsig_key=self.tsig_key, zone=self.zone,
            channel_factory=self._server_tls(host, "required"),
            authorizer=self.policy and self.policy.authority_authorizer,
            batch_window=batch_window)
        self.authority.start()
        host = self.world.host("gdn-search", first_site)
        self.search = SearchService(
            self.world, host, channel_factory=self._server_tls(host,
                                                               "optional"),
            authorizer=self.policy and self.policy.authority_authorizer)
        self.search.start()

        # -- flash-crowd serving layer (GLS-lookup cache) ------------------
        self._cache_options = None if gls_cache is None else dict(gls_cache)
        self.lookup_caches: Dict[str, GlsLookupCache] = {}

        # -- application component registries -----------------------------------
        self.object_servers: Dict[str, GlobeObjectServer] = {}
        self.httpds: List[GdnHttpd] = []
        self.moderators: Dict[str, ModeratorTool] = {}
        self.browsers: Dict[str, Browser] = {}

    # -- infrastructure construction -----------------------------------------

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
        world = self.world
        regions = self._regions()
        keyring = TsigKeyring()
        keyring.add(self.tsig_key)

        root_host = world.host("dns-root", self._first_site(regions[0]))
        self.dns_root = AuthoritativeServer(world, root_host)
        from ..gns.dns.zone import Zone
        root_zone = Zone("", primary_host=root_host.name)
        tld = self.zone.split(".")[-1]
        tld_site = self._first_site(regions[min(1, len(regions) - 1)])
        tld_host = world.host("dns-tld", tld_site)
        root_zone.add_record(ResourceRecord(tld, RRType.NS, 86400,
                                            tld_host.name))
        self.dns_root.add_primary_zone(root_zone)
        self.dns_root.start()

        self.dns_tld = AuthoritativeServer(world, tld_host)
        tld_zone = Zone(tld, primary_host=tld_host.name)
        primary_host = world.host("dns-gdn-primary",
                                  self._first_site(regions[0]))
        tld_zone.add_record(ResourceRecord(self.zone, RRType.NS, 3600,
                                           primary_host.name))
        self.dns_secondaries: List[AuthoritativeServer] = []
        secondary_endpoints = []
        for index, region in enumerate(regions[1:], start=1):
            sec_host = world.host("dns-gdn-sec%d" % index,
                                  self._first_site(region))
            tld_zone.add_record(ResourceRecord(self.zone, RRType.NS, 3600,
                                               sec_host.name))
            secondary_endpoints.append((sec_host.name, DNS_PORT))
            secondary = AuthoritativeServer(world, sec_host, keyring=keyring)
            secondary.add_secondary_zone(self.zone,
                                         (primary_host.name, DNS_PORT))
            secondary.start()
            self.dns_secondaries.append(secondary)
        self.dns_tld.add_primary_zone(tld_zone)
        self.dns_tld.start()

        self.dns_primary = AuthoritativeServer(world, primary_host,
                                               keyring=keyring)
        gdn_zone = Zone(self.zone, primary_host=primary_host.name)
        self.dns_primary.add_primary_zone(gdn_zone,
                                          secondaries=secondary_endpoints)
        self.dns_primary.start()
        self.root_hints = [(root_host.name, DNS_PORT)]
        for server in [self.dns_root, self.dns_tld, self.dns_primary,
                       *self.dns_secondaries]:
            server.bind_metrics(world.metrics, "dns.%s" % server.host.name)

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

    def _lookup_cache(self, host: Host,
                      upstream: GlsClient) -> Optional[GlsLookupCache]:
        """The host's GLS-lookup cache (None when caching is off).

        One cache per host, shared by every component there: wire
        lists are nearest-first *per fetching host*, so per-host is
        the widest safe sharing — and it means a colocated GOS's
        register/unregister invalidates the very entry its HTTPD
        serves, instead of waiting out a TTL."""
        if self._cache_options is None:
            return None
        cache = self.lookup_caches.get(host.name)
        if cache is None:
            cache = GlsLookupCache(self.world.sim, upstream,
                                   **self._cache_options)
            cache.bind_metrics(self.world.metrics,
                               prefix="gls_cache.%s" % host.name)
            self.lookup_caches[host.name] = cache
        return cache

    def _runtime(self, host: Host, gdn_host: bool,
                 binding_ttl: Optional[float] = None) -> Runtime:
        """An HTTPD's (``gdn_host``) or a user-machine proxy's runtime."""
        wrapper = (self._client_tls(host.name, Role.GDN_HOST) if gdn_host
                   else self._client_tls(None, Role.USER))
        client = self._gls_client(host, authenticated=gdn_host)
        return Runtime(self.world, host, client, self.repository,
                       channel_wrapper=wrapper, binding_ttl=binding_ttl,
                       lookup_cache=self._lookup_cache(host, client))

    def _tool_runtime(self, host: Host, role: Role) -> Runtime:
        """A moderator's or maintainer's runtime: channels under its
        ``role`` certificate, unauthenticated GLS lookups, no cache."""
        return Runtime(self.world, host,
                       self._gls_client(host, authenticated=False),
                       self.repository,
                       channel_wrapper=self._client_tls(host.name, role))

    def _name_service(self, host: Host) -> GlobeNameService:
        resolver = CachingResolver(self.world, host, self.root_hints)
        return GlobeNameService(self.world, host, resolver, zone=self.zone)

    def add_gos(self, name: str, site: Union[str, Domain],
                port: int = DEFAULT_GOS_PORT) -> GlobeObjectServer:
        """Add a Globe Object Server at ``site``."""
        host = self.world.host(name, site)
        factory = self._server_tls(host, "optional")
        client = self._gls_client(host, authenticated=True)
        gos = GlobeObjectServer(
            self.world, host, self.repository,
            self._lookup_cache(host, client) or client, port=port,
            channel_factory=factory,
            channel_wrapper=self._client_tls(host.name, Role.GDN_HOST),
            authorizer=self.policy and self.policy.gos_authorizer,
            disk=self.disk, checkpoint_on_write=True)
        gos.start()
        gos.bind_metrics(self.world.metrics, prefix="gos.%s" % name)
        self.repository.preload(host, PACKAGE_IMPL_ID)
        self.object_servers[name] = gos
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
        httpd.bind_metrics(self.world.metrics, prefix="httpd.%s" % name)
        httpd.runtime.bind_metrics(self.world.metrics,
                                   prefix="httpd.%s.runtime" % name)
        self.httpds.append(httpd)
        return httpd

    def add_proxy(self, name: str, site: Union[str, Domain],
                  port: int = HTTP_PORT) -> GdnHttpd:
        """Add a GDN-proxy on a user machine (§4): same software, no
        GDN credentials, plain HTTP toward the local browser."""
        host = self.world.host(name, site)
        proxy = GdnHttpd(self.world, host,
                         self._runtime(host, gdn_host=False),
                         self._name_service(host), port=port)
        proxy.start()
        return proxy

    def add_moderator(self, name: str, site: Union[str, Domain]
                      ) -> ModeratorTool:
        """Add a moderator (tool + credentials + registry entry)."""
        host = self.world.host(name, site)
        tool = ModeratorTool(
            self.world, host, self._tool_runtime(host, Role.MODERATOR),
            self.object_servers,
            (self.authority.host.name, self.authority.port),
            self._name_service(host),
            search_endpoint=(self.search.host.name, self.search.port))
        tool.runtime.bind_metrics(self.world.metrics,
                                  prefix="moderator.%s.runtime" % name)
        self.moderators[name] = tool
        return tool

    def add_maintainer(self, name: str, site: Union[str, Domain],
                       maintains: Optional[List[str]] = None):
        """Add a §2 maintainer: content rights on specific packages.

        ``maintains`` lists OIDs (hex) this principal may modify; more
        can be granted later with ``grant_maintainer``.
        """
        from .maintainer import MaintainerTool

        host = self.world.host(name, site)
        runtime = self._tool_runtime(host, Role.MAINTAINER)
        for oid_hex in maintains or []:
            self.grant_maintainer(name, oid_hex)
        return MaintainerTool(self.world, host, runtime,
                              self._name_service(host))

    def grant_maintainer(self, principal: str, oid_hex: str) -> None:
        """Administrator action: extend a maintainer's package set."""
        if self.registry is not None:
            self.registry.grant_package(principal, oid_hex)

    def add_browser(self, name: str, site: Union[str, Domain],
                    access_point: Optional[GdnHttpd] = None) -> Browser:
        """Add a user browser, bound to the nearest access point."""
        host = self.world.host(name, site)
        if access_point is None:
            access_point = nearest_access_point(host, self.httpds)
        browser = Browser(self.world, host, access_point,
                          channel_wrapper=self._client_tls(None, Role.USER))
        self.browsers[name] = browser
        return browser

    def chunked_downloader(self, policy=None, budget=None,
                           resume: bool = True,
                           chunk_size: Optional[int] = None,
                           metrics_prefix: Optional[str] = "transfer"):
        """A :class:`~repro.gdn.transfer.ChunkedDownloader` for this
        deployment's browsers, instruments bound in the world registry
        under ``metrics_prefix`` (None skips binding — e.g. for a
        second, differently-configured downloader in one world)."""
        from .transfer import ChunkedDownloader

        downloader = ChunkedDownloader(self.world, policy=policy,
                                       budget=budget, resume=resume,
                                       chunk_size=chunk_size)
        if metrics_prefix is not None:
            downloader.bind_metrics(self.world.metrics, metrics_prefix)
        return downloader

    def browser_pool(self, prefix: str) -> "BrowserPool":
        """One long-lived browser per site, created on first use.

        Load drivers issue many requests per site; reusing a browser
        (and so its access-point channel) per site is how real users
        behave and keeps host creation out of the request hot path.
        """
        return BrowserPool(self, prefix)

    # -- canned layouts -------------------------------------------------------------

    def standard_fleet(self, gos_per_region: int = 1) -> None:
        """One (or more) GOS+HTTPD pairs per region — the paper's
        "machines all over the world" baseline layout."""
        for region in self._regions():
            sites = list(region.sites())
            for index in range(gos_per_region):
                site = sites[index % len(sites)]
                name = "gos-%s-%d" % (region.name, index)
                self.add_gos(name, site)
                self.add_httpd("httpd-%s-%d" % (region.name, index),
                               colocate_with=name)

    def gos_by_region(self) -> Dict[str, str]:
        """region path -> one object-server name (for ScenarioAdvisor)."""
        mapping: Dict[str, str] = {}
        for name, gos in sorted(self.object_servers.items()):
            region = gos.host.site.region()
            mapping.setdefault(region.path, name)
        return mapping

    def recover_gos(self, name: str) -> None:
        """Reboot recovery of an object-server machine (§4).

        Restarts the host if needed, reconstructs the GOS's replicas
        from stable storage, and restarts any colocated HTTPDs (whose
        in-memory bindings died with the address space).
        """
        gos = self.object_servers[name]
        host = gos.host
        if not host.up:
            host.restart()
        self.run(gos.recover(), host=host)
        for httpd in self.httpds:
            if httpd.host is host:
                httpd.runtime.unbind_all()
                httpd.start()

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
