"""Who holds which principal in a deployment (§6.1-§6.3).

Every GDN host (object server, HTTPD, naming authority, search
service) holds a GDN_HOST certificate and registry grant; a moderator
holds MODERATOR; a maintainer holds a certificate and its package
grants but no role grant; browsers and user-machine proxies hold
nothing and reach the GDN over server-auth TLS.  An unsecured
deployment wires no TLS anywhere and keeps no registry.
"""

from repro.gdn.deployment import GdnDeployment, standard_spec
from repro.security.acl import Role, role_attribute

GDN_HOSTS = ["gos-r0-0", "gos-r1-0", "httpd-edge", "gns-authority",
             "gdn-search"]


def _deployment(secure):
    spec = standard_spec(2, 2, 2, 2)
    spec["httpds"]["httpd-edge"] = {"site": "r1/c1/m0/s0"}
    gdn = GdnDeployment.from_spec({
        **spec, "seed": 3, "secure": secure,
        "moderators": {"mod": "r0/c0/m0/s1"}})
    maintainer = gdn.add_maintainer("maint", "r0/c1/m0/s1",
                                    maintains=["ab12"])
    idle = gdn.add_maintainer("idle", "r1/c0/m0/s1")
    proxy = gdn.add_proxy("user-proxy", "r1/c0/m1/s0")
    browser = gdn.add_browser("user", "r1/c1/m1/s1")
    return gdn, maintainer, idle, proxy, browser


def _certificate_roles(gdn, name):
    """The ``gdn-role`` attribute issued into ``name``'s certificate."""
    return gdn._credentials[name].certificate.attributes


def test_each_role_holds_exactly_its_principal():
    gdn, maintainer, idle, proxy, browser = _deployment(secure=True)
    # One certificate per principal, issued once; colocated HTTPDs
    # share their object server's.
    assert sorted(gdn.ca.issued) == sorted(
        GDN_HOSTS + ["mod", "maint", "idle", "public-trust"])
    for name in GDN_HOSTS:
        assert _certificate_roles(gdn, name) == role_attribute(Role.GDN_HOST)
        assert gdn.registry.roles_of(name) == {Role.GDN_HOST}
    assert _certificate_roles(gdn, "mod") == role_attribute(Role.MODERATOR)
    assert gdn.registry.roles_of("mod") == {Role.MODERATOR}
    assert _certificate_roles(gdn, "maint") \
        == role_attribute(Role.MAINTAINER)
    assert gdn.registry.maintains("maint", "ab12")
    assert not gdn.registry.has_role("maint", Role.MODERATOR, Role.ADMIN,
                                     Role.GDN_HOST)
    assert gdn.registry.roles_of("idle") == set()
    for user in (proxy.host.name, browser.host.name):
        assert user not in gdn.ca.issued
        assert gdn.registry.roles_of(user) == set()
    # Everyone talks TLS; the services authorize through the policy.
    assert proxy.runtime.pool.channel_wrapper is not None
    assert browser._pool.channel_wrapper is not None
    assert maintainer.runtime.pool.channel_wrapper is not None
    assert proxy.channel_factory is None  # plain HTTP to the local browser
    for service in (*gdn.object_servers.values(), gdn.authority,
                    gdn.search):
        assert service.channel_factory is not None
        assert service.authorizer is not None
    assert all(httpd.channel_factory is not None for httpd in gdn.httpds)


def test_an_unsecured_deployment_wires_no_tls_and_keeps_no_registry():
    gdn, maintainer, idle, proxy, browser = _deployment(secure=False)
    assert gdn.ca is None and gdn.registry is None and gdn.policy is None
    assert not gdn._credentials
    for service in (*gdn.object_servers.values(), gdn.authority,
                    gdn.search):
        assert service.channel_factory is None
        assert service.authorizer is None
    assert all(gos.pool.channel_wrapper is None
               for gos in gdn.object_servers.values())
    for httpd in (*gdn.httpds, proxy):
        assert httpd.channel_factory is None
        assert httpd.runtime.pool.channel_wrapper is None
    for tool in (*gdn.moderators.values(), maintainer, idle):
        assert tool.runtime.pool.channel_wrapper is None
    assert browser._pool.channel_wrapper is None
