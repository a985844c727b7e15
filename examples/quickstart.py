#!/usr/bin/env python3
"""Quickstart: publish a package to the GDN and download it.

Builds a small world (two regions), deploys the whole Globe stack —
DNS + Globe Name Service, Globe Location Service, object servers with
colocated GDN-HTTPDs, naming authority — then walks the paper's core
user stories:

1. a moderator creates a package DSO with a master/slave replication
   scenario and registers its name,
2. a browser near the slave replica fetches the package page and a
   file through its nearest GDN-HTTPD,
3. the download is verified against the package's published digest.

Run:  python examples/quickstart.py
"""

import hashlib

from repro.gdn.deployment import GdnDeployment, standard_spec
from repro.gdn.scenario import ReplicationScenario


def main():
    print("== Globe Distribution Network quickstart ==\n")

    # A small internet: two regions ("eu", "na"-ish), two countries
    # each, two sites per city; one GOS+HTTPD per region, and the
    # moderator's machine.
    gdn = GdnDeployment.from_spec({
        **standard_spec(2, 2, 1, 2), "seed": 42, "secure": True,
        "moderators": {"mod-alice": "r0/c0/m0/s1"}})
    print("deployed: %d object servers, %d HTTPDs, GLS tree of %d nodes"
          % (len(gdn.object_servers), len(gdn.httpds), len(gdn.gls.nodes)))

    # -- the moderator publishes a package ------------------------------
    moderator = gdn.moderators["mod-alice"]
    files = {
        "README": b"The GIMP - GNU Image Manipulation Program v1.2\n",
        "bin/gimp": b"\x7fELF" + bytes(range(256)) * 40,  # ~10 KiB
    }
    scenario = ReplicationScenario.master_slave(
        "gos-r0-0", slaves=["gos-r1-0"], cache_ttl=300.0)

    oid = gdn.run(moderator.create_package("/apps/graphics/Gimp", files,
                                           scenario), host=moderator.host)
    gdn.settle(2.0)
    print("published /apps/graphics/Gimp as DSO %s" % oid)
    print("  replication: master on gos-r0-0, slave on gos-r1-0\n")

    # -- a user on another continent downloads it -----------------------
    browser = gdn.add_browser("user-bob", "r1/c1/m0/s1")
    print("user-bob's access point: %s (nearest HTTPD)"
          % browser.access_point.host.name)

    def surf():
        page = yield from browser.get("/gdn/apps/graphics/Gimp")
        blob = yield from browser.download("/apps/graphics/Gimp",
                                           "bin/gimp")
        return page, blob

    page, blob = gdn.run(surf(), host=browser.host)
    print("package page: HTTP %d, %d bytes of HTML, %.1f ms"
          % (page.status, len(page.body), page.elapsed * 1e3))
    print("file download: HTTP %d, %d bytes, %.1f ms"
          % (blob.status, len(blob.body), blob.elapsed * 1e3))

    digest = hashlib.sha256(blob.body).hexdigest()
    expected = hashlib.sha256(files["bin/gimp"]).hexdigest()
    assert digest == expected, "download corrupted!"
    print("sha256 verified: %s...\n" % digest[:16])

    meter = gdn.world.network.meter
    print("traffic by separation level:")
    for level, count in meter.bytes_by_level.items():
        print("  %-8s %12d bytes" % (level.name, count))
    print("\nquickstart OK")


if __name__ == "__main__":
    main()
