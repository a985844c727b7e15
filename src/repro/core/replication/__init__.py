"""Replication protocols for distributed shared objects.

Importing this package registers all built-in protocols in
:data:`repro.core.replication.base.PROTOCOLS`:

* ``client_server`` — single authoritative server (paper §7);
* ``master_slave`` — master applies writes, pushes state to slaves
  (paper §7);
* ``cache`` — TTL-based client-side caching / lazy replication (§3.3).

§3.3's active replication (every replica executes every write, in a
sequencer's order) is not reproduced: no experiment, workload or
example creates an actively replicated object, and a write's
operation is barely smaller than the change set ``master_slave``
pushes for it (``benchmarks/README.md``).
"""

from . import cache, client_server, master_slave  # noqa: F401
