"""Unit tests for the hierarchical topology."""

import pytest

from repro.sim.topology import (Domain, Level, Topology, TopologyError,
                                nearest_first)


@pytest.fixture
def topo():
    topo = Topology()
    eu, na = topo.add_region("eu"), topo.add_region("na")
    nl, de = topo.add_country(eu, "nl"), topo.add_country(eu, "de")
    us = topo.add_country(na, "us")
    ams, rot = topo.add_city(nl, "ams"), topo.add_city(nl, "rot")
    ber = topo.add_city(de, "ber")
    nyc, sfo = topo.add_city(us, "nyc"), topo.add_city(us, "sfo")
    for city, site in ((ams, "vu"), (ams, "uva"), (rot, "eur"), (ber, "tu"),
                       (nyc, "nyu"), (sfo, "ucb")):
        topo.add_site(city, site)
    return topo


def test_site_paths(topo):
    site = topo.site("eu/nl/ams/vu")
    assert site.level == Level.SITE
    assert site.path == "eu/nl/ams/vu"


def test_unknown_site_raises(topo):
    with pytest.raises(TopologyError):
        topo.site("eu/nl/ams/nowhere")


def test_domain_lookup(topo):
    country = topo.domain("eu/nl")
    assert country.level == Level.COUNTRY
    assert topo.domain("") is topo.world


def test_separation_levels(topo):
    vu = topo.site("eu/nl/ams/vu")
    assert Topology.separation(vu, vu) == Level.SITE
    assert Topology.separation(vu, topo.site("eu/nl/ams/uva")) == Level.CITY
    assert Topology.separation(vu, topo.site("eu/nl/rot/eur")) == Level.COUNTRY
    assert Topology.separation(vu, topo.site("eu/de/ber/tu")) == Level.REGION
    assert Topology.separation(vu, topo.site("na/us/nyc/nyu")) == Level.WORLD


def test_nearest_first_orders_by_separation(topo):
    vu = topo.site("eu/nl/ams/vu")
    paths = ["na/us/nyc/nyu", "eu/de/ber/tu", "eu/nl/rot/eur",
             "eu/nl/ams/uva", "eu/nl/ams/vu"]
    ordered = nearest_first(vu, paths, topo.site)
    assert ordered == list(reversed(paths))


def test_nearest_first_ties_keep_input_order_or_follow_tie(topo):
    vu = topo.site("eu/nl/ams/vu")
    far = ["na/us/sfo/ucb", "na/us/nyc/nyu"]  # both at WORLD distance
    assert nearest_first(vu, far, topo.site) == far
    assert nearest_first(vu, far, topo.site, tie=str) == sorted(far)


def test_nearest_first_puts_unknown_sites_last(topo):
    vu = topo.site("eu/nl/ams/vu")
    sites = {"near": topo.site("eu/nl/ams/uva"),
             "far": topo.site("na/us/nyc/nyu")}
    ordered = nearest_first(vu, ["lost", "far", "gone", "near"], sites.get)
    assert ordered == ["near", "far", "lost", "gone"]


def test_lca_is_shared_ancestor(topo):
    vu = topo.site("eu/nl/ams/vu")
    eur = topo.site("eu/nl/rot/eur")
    assert Topology.lca(vu, eur) is topo.domain("eu/nl")


def test_ancestors_end_at_root(topo):
    vu = topo.site("eu/nl/ams/vu")
    chain = list(vu.ancestors())
    assert chain[0] is vu
    assert chain[-1] is topo.world
    assert [d.level for d in chain] == [
        Level.SITE, Level.CITY, Level.COUNTRY, Level.REGION, Level.WORLD]


def test_sites_enumeration(topo):
    nl_sites = [s.path for s in topo.domain("eu/nl").sites()]
    assert nl_sites == ["eu/nl/ams/vu", "eu/nl/ams/uva", "eu/nl/rot/eur"]


def test_subtree_preorder(topo):
    eu = topo.domain("eu")
    names = [d.name for d in eu.subtree()]
    assert names[0] == "eu"
    assert "nl" in names and "vu" in names


def test_balanced_shape():
    topo = Topology.balanced(regions=2, countries=3, cities=2, sites=2)
    assert len(topo.sites) == 2 * 3 * 2 * 2
    assert topo.site("r1/c2/m1/s0").level == Level.SITE


def test_level_skip_rejected():
    topo = Topology()
    with pytest.raises(TopologyError):
        Domain("bad-city", Level.CITY, topo.world)


def test_duplicate_child_rejected():
    topo = Topology()
    topo.add_region("eu")
    with pytest.raises(TopologyError):
        topo.add_region("eu")


def test_disjoint_topologies_share_no_ancestor():
    a = Topology().add_region("eu")
    b = Topology().add_region("eu")
    with pytest.raises(TopologyError):
        Topology.lca(a, b)


def test_region_of_full_hierarchy():
    topo = Topology.balanced(2, 2, 2, 2)
    site = topo.site("r1/c0/m1/s0")
    region = site.region()
    assert region.level == Level.REGION
    assert region.path == "r1"
    # Any ancestor resolves to the same region.
    assert site.parent.region() is region
    assert region.region() is region


def test_region_of_shallow_domains():
    # Regression: hand-built domains without the full five-level chain
    # used to make callers IndexError on ancestors()[3].
    lonely = Domain("lonely", Level.SITE)
    assert lonely.region() is lonely

    city = Domain("metropolis", Level.CITY)
    site = Domain("campus", Level.SITE, city)
    # Topmost ancestor below the (parentless) root stands in.
    assert site.region() is site


# -- thousand-site scale ------------------------------------------------------


def test_thousand_site_topology_builds_and_resolves():
    # 8*8*8*4 = 2048 sites; construction precomputes lineage/path once
    # per domain, so this stays well under a second.
    topo = Topology.balanced(regions=8, countries=8, cities=8, sites=4)
    sites = topo.sites
    assert len(sites) == 2048
    probe = topo.site("r7/c7/m7/s3")
    assert probe.path == "r7/c7/m7/s3"
    assert probe.region().path == "r7"
    # Every site resolves its own path back to itself.
    for site in sites[::97]:
        assert topo.site(site.path) is site


def test_separation_at_scale():
    topo = Topology.balanced(regions=8, countries=8, cities=8, sites=4)
    a = topo.site("r0/c0/m0/s0")
    assert Topology.separation(a, a) == Level.SITE
    assert Topology.separation(a, topo.site("r0/c0/m0/s1")) == Level.CITY
    assert Topology.separation(a, topo.site("r0/c0/m7/s0")) == Level.COUNTRY
    assert Topology.separation(a, topo.site("r0/c7/m0/s0")) == Level.REGION
    assert Topology.separation(a, topo.site("r7/c0/m0/s0")) == Level.WORLD


def test_separation_cache_bounded_by_touched_pairs():
    # The cache must scale with the pairs actually exercised, not with
    # site-count squared: thousands of sites with a handful of active
    # pairs keeps it tiny.
    from repro.sim.kernel import Simulator
    from repro.sim.network import Network

    topo = Topology.balanced(regions=8, countries=8, cities=8, sites=4)
    net = Network(Simulator(), topo)
    a = topo.site("r0/c0/m0/s0")
    peers = [topo.site("r%d/c1/m1/s1" % i) for i in range(8)]
    for peer in peers:
        for _ in range(3):  # repeats hit the cache, not grow it
            net.separation(a, peer)
    assert len(net._separation_cache) == len(peers)


def test_lca_deep_vs_shallow_nodes():
    topo = Topology.balanced(2, 2, 2, 2)
    site = topo.site("r1/c1/m1/s1")
    region = topo.domain("r1")
    assert Topology.lca(site, region) is region
    assert Topology.lca(region, site) is region
    assert Topology.lca(site, topo.world) is topo.world


def test_region_memoised_for_hand_built_shallow_domains():
    # region() caches its answer; the memo must hold the *resolved*
    # domain even for shallow chains that lack a REGION ancestor.
    city = Domain("metropolis", Level.CITY)
    site = Domain("campus", Level.SITE, city)
    first = site.region()
    assert site.region() is first
    assert first is site
    # A full-depth site memoises the true region.
    topo = Topology.balanced(2, 1, 1, 1)
    deep = topo.site("r1/c0/m0/s0")
    assert deep.region() is deep.region()
    assert deep.region().path == "r1"
