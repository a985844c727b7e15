"""A deployment as data: what ``GdnDeployment.from_spec`` builds, and
the specs it refuses."""

import json

import pytest

from repro.gdn.deployment import GdnDeployment, standard_spec
from repro.sim.topology import TopologyError


def test_the_standard_spec_is_the_papers_baseline_layout():
    # The layout the fleet method built on this topology, in its order:
    # a GOS and a colocated HTTPD on each region's first site.
    spec = standard_spec(3, 2, 1, 2)
    assert json.loads(json.dumps(spec)) == spec
    gdn = GdnDeployment.from_spec({**spec, "secure": False})
    assert [(name, gos.host.site.path)
            for name, gos in gdn.object_servers.items()] == [
        ("gos-r0-0", "r0/c0/m0/s0"), ("gos-r1-0", "r1/c0/m0/s0"),
        ("gos-r2-0", "r2/c0/m0/s0")]
    assert [httpd.host for httpd in gdn.httpds] == [
        gos.host for gos in gdn.object_servers.values()]
    assert [name for name in gdn.metrics.names()
            if name.startswith("httpd.")
            and name.endswith(".bytes_served")] == [
        "httpd.httpd-r0-0.bytes_served",
        "httpd.httpd-r1-0.bytes_served",
        "httpd.httpd-r2-0.bytes_served"]
    # Every GDN Zone secondary holds the zone before the first
    # publication: the initial transfers, not the first NOTIFY, bring
    # it (the goldens' wide-area bytes count them there).
    assert [gdn.zone in secondary.zones
            for secondary in gdn.dns_secondaries] == [True, True]


SPEC = {"topology": [2, 1, 1, 2], "secure": False,
        "gos": {"gos-0": "r0/c0/m0/s0"},
        "httpds": {"ap": {"colocate_with": "gos-0"}}}


@pytest.mark.parametrize("change, error, match", [
    ({"replicas": 2}, ValueError, r"spec\.replicas: unknown key"),
    ({"httpds": {"ap": {"colocate_with": "gos-0", "port": 8080}}},
     ValueError, r"spec\.httpds\.ap\.port: unknown key"),
    ({"httpds": {"ap": {"colocate_with": "gos-0",
                        "site": "r0/c0/m0/s1"}}},
     ValueError, r"spec\.httpds\.ap: needs exactly one of site and"),
    ({"httpds": {"ap": {"binding_ttl": 5.0}}},
     ValueError, r"spec\.httpds\.ap: needs exactly one of site and"),
    ({"httpds": {"ap": {"colocate_with": "gos-9"}}},
     ValueError, r"spec\.httpds\.ap\.colocate_with: .*'gos-9'"),
    ({"httpds": {"ap": {"site": "r0/c0/m0/s1",
                        "cache_ttl": lambda _name: 5.0}}},
     ValueError, r"spec\.httpds\.ap\.cache_ttl: .* is not JSON data"),
    ({"topology": (2, 1, 1, 2)},
     ValueError, r"spec\.topology: .* is not JSON data"),
    ({"gos": {"gos-0": "r7/c0/m0/s0"}}, TopologyError, "r7/c0/m0/s0"),
], ids=["unknown-key", "unknown-httpd-key", "site-and-gos",
        "neither-site-nor-gos", "unknown-gos", "callable", "tuple",
        "site-outside-topology"])
def test_from_spec_refuses_a_malformed_spec(change, error, match):
    with pytest.raises(error, match=match):
        GdnDeployment.from_spec({**SPEC, **change})
