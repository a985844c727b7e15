"""Hierarchical wide-area topology.

The paper's systems (GLS domains, GDN host placement, "replicas close to
clients") are all phrased in terms of a hierarchy of network domains:
campus networks combine into cities, cities into countries, countries
into world regions, regions into the whole Internet (GDN paper §3.5,
Figure 2).  This module provides that geometry: a tree of
:class:`Domain` objects with five levels.

Distance between two attachment points (sites) is characterised by the
*level of their lowest common ancestor*: two hosts on the same campus
are at ``Level.SITE`` distance, two hosts in different world regions at
``Level.WORLD`` distance.  The network layer maps these levels to
latency and bandwidth figures.

The topology is pure geometry — no simulator state — so it can be built
and inspected eagerly in tests.
"""

from __future__ import annotations

from enum import IntEnum
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    TypeVar)

__all__ = ["Level", "Domain", "Topology", "TopologyError", "nearest_first"]

T = TypeVar("T")


class TopologyError(Exception):
    """Raised for malformed topology construction or lookups."""


class Level(IntEnum):
    """Domain levels, ordered from most local to most global."""

    SITE = 0
    CITY = 1
    COUNTRY = 2
    REGION = 3
    WORLD = 4


class Domain:
    """A node in the domain hierarchy.

    Leaf domains (``Level.SITE``) are the attachment points for hosts;
    every non-leaf domain groups its children (GDN paper, Figure 2).
    """

    def __init__(self, name: str, level: Level,
                 parent: Optional["Domain"] = None):
        if parent is not None and parent.level != level + 1:
            raise TopologyError(
                "domain %r (level %s) cannot be a child of %r (level %s)"
                % (name, level.name, parent.name, parent.level.name))
        self.name = name
        self.level = level
        self.parent = parent
        self.children: Dict[str, "Domain"] = {}
        # A domain's ancestry is fixed at construction (parents are
        # never re-assigned), so the root-to-self chain and the path
        # string can be computed once here instead of walking the tree
        # per query — lca/separation and region lookups sit on hot
        # per-message paths at thousand-site scale.
        if parent is None:
            self._lineage: tuple = (self,)
            self._path = ""
        else:
            self._lineage = parent._lineage + (self,)
            self._path = (name if parent.parent is None
                          else parent._path + "/" + name)
        self._region: Optional["Domain"] = None
        if parent is not None:
            if name in parent.children:
                raise TopologyError(
                    "duplicate child domain %r under %r" % (name, parent.name))
            parent.children[name] = self

    @property
    def path(self) -> str:
        """Slash-separated path from the world root, e.g. ``eu/nl/ams/vu``."""
        return self._path

    def ancestors(self) -> Iterator["Domain"]:
        """This domain, then its parent, up to and including the root."""
        node: Optional[Domain] = self
        while node is not None:
            yield node
            node = node.parent

    def region(self) -> "Domain":
        """The ``Level.REGION`` ancestor, derived defensively.

        On a full five-level hierarchy this is the world-root's child
        above this domain.  Shallower trees (hand-built domains without
        the full chain) fall back to the topmost ancestor below the
        root, or to ``self`` when the domain stands alone — callers get
        a usable grouping key instead of an IndexError.

        The result is memoised on first call: ancestry is immutable,
        and ``RequestStream.reads_by_region`` resolves a region per
        request.
        """
        region = self._region
        if region is None:
            region = self._resolve_region()
            self._region = region
        return region

    def _resolve_region(self) -> "Domain":
        candidate = self
        for node in self.ancestors():
            if node.level == Level.REGION:
                return node
            if node.parent is not None:
                candidate = node
        return candidate

    def sites(self) -> Iterator["Domain"]:
        """All leaf (site) domains under this domain, in insertion order."""
        if self.level == Level.SITE:
            yield self
            return
        for child in self.children.values():
            yield from child.sites()

    def subtree(self) -> Iterator["Domain"]:
        """This domain and all descendants, pre-order."""
        yield self
        for child in self.children.values():
            yield from child.subtree()

    def __repr__(self) -> str:
        return "Domain(%r, %s)" % (self.path or "<world>", self.level.name)


class Topology:
    """A five-level domain tree with helpers for building and queries."""

    def __init__(self, name: str = "internet"):
        self.name = name
        self.world = Domain("world", Level.WORLD)
        self._sites: Dict[str, Domain] = {}

    # -- construction ---------------------------------------------------

    def add_region(self, name: str) -> Domain:
        return Domain(name, Level.REGION, self.world)

    def add_country(self, region: Domain, name: str) -> Domain:
        return Domain(name, Level.COUNTRY, region)

    def add_city(self, country: Domain, name: str) -> Domain:
        return Domain(name, Level.CITY, country)

    def add_site(self, city: Domain, name: str) -> Domain:
        site = Domain(name, Level.SITE, city)
        self._sites[site.path] = site
        return site

    @classmethod
    def balanced(cls, regions: int = 2, countries: int = 2, cities: int = 2,
                 sites: int = 2, name: str = "internet") -> "Topology":
        """A symmetric topology: handy default for experiments.

        Domain names are systematic (``r0``, ``r0/c1``, ...), so tests
        can address sites by path.
        """
        topo = cls(name)
        for r in range(regions):
            region = topo.add_region("r%d" % r)
            for c in range(countries):
                country = topo.add_country(region, "c%d" % c)
                for m in range(cities):
                    city = topo.add_city(country, "m%d" % m)
                    for s in range(sites):
                        topo.add_site(city, "s%d" % s)
        return topo

    @classmethod
    def from_spec(cls, spec: dict, name: str = "internet") -> "Topology":
        """Build from a nested dict, e.g.::

            {"eu": {"nl": {"ams": ["vu", "uva"]}},
             "na": {"us": {"nyc": ["nyu"]}}}
        """
        topo = cls(name)
        for region_name, countries in spec.items():
            region = topo.add_region(region_name)
            for country_name, cities in countries.items():
                country = topo.add_country(region, country_name)
                for city_name, sites in cities.items():
                    city = topo.add_city(country, city_name)
                    for site_name in sites:
                        topo.add_site(city, site_name)
        return topo

    # -- queries ----------------------------------------------------------

    @property
    def sites(self) -> List[Domain]:
        return list(self._sites.values())

    def site(self, path: str) -> Domain:
        """Look a site up by its full path (``region/country/city/site``)."""
        try:
            return self._sites[path]
        except KeyError:
            raise TopologyError("unknown site %r" % path) from None

    def domain(self, path: str) -> Domain:
        """Look up any domain by path; empty path is the world root."""
        node = self.world
        if not path:
            return node
        for part in path.split("/"):
            try:
                node = node.children[part]
            except KeyError:
                raise TopologyError("unknown domain %r" % path) from None
        return node

    @staticmethod
    def lca(a: Domain, b: Domain) -> Domain:
        """Lowest common ancestor of two domains.

        Each domain carries its root-to-self chain precomputed
        (``_lineage``), so this is an allocation-free O(depth) prefix
        compare instead of building an ancestor set per query — the
        difference between thousand-site topologies warming a
        separation cache in milliseconds versus seconds.
        """
        lineage_a = a._lineage
        lineage_b = b._lineage
        if lineage_a[0] is not lineage_b[0]:
            raise TopologyError(
                "domains %r and %r share no ancestor" % (a, b))
        node = lineage_a[0]
        for ancestor_a, ancestor_b in zip(lineage_a, lineage_b):
            if ancestor_a is not ancestor_b:
                break
            node = ancestor_a
        return node

    @classmethod
    def separation(cls, a: Domain, b: Domain) -> Level:
        """The level of the LCA: how 'far apart' two sites are.

        ``Level.SITE`` means the same campus; ``Level.WORLD`` means the
        two sites are in different world regions.
        """
        return cls.lca(a, b).level


#: Where an item whose site is unknown sorts: past ``Level.WORLD``.
_UNKNOWN = len(Level)


def nearest_first(origin: Domain, items: Iterable[T],
                  site_of: Callable[[T], Optional[Domain]],
                  tie: Optional[Callable[[T], Any]] = None) -> List[T]:
    """``items`` ordered by the separation of their site from
    ``origin``, nearest first.

    The one server-choice order of the GDN: access points (§4),
    replica contact addresses, implementation repositories, mirrors and
    the GDN Zone's name servers (§5) are all tried nearest-first.
    Items at equal separation keep their input order, or are ordered by
    ``tie`` when it is given; an item whose ``site_of`` is None (an
    unknown host or site) sorts after every known one.
    """
    def separation(item: T) -> int:
        site = site_of(item)
        return _UNKNOWN if site is None else Topology.separation(origin, site)

    if tie is None:
        return sorted(items, key=separation)
    return sorted(items, key=lambda item: (separation(item), tie(item)))
