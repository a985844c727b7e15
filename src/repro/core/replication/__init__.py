"""Replication protocols for distributed shared objects.

Importing this package registers all built-in protocols in
:data:`repro.core.replication.base.PROTOCOLS`:

* ``client_server`` — single authoritative server (paper §7);
* ``master_slave`` — master applies writes, pushes state to slaves
  (paper §7);
* ``active`` — sequencer-ordered operation multicast (§3.3);
* ``cache`` — TTL-based client-side caching / lazy replication (§3.3).
"""

from . import active, cache, client_server, master_slave  # noqa: F401
from .base import (PROTOCOLS, ReplicationError, ReplicationSubobject,
                   register_protocol)
from .active import ActiveClient, ActiveReplica, ActiveSequencer
from .cache import CachingClient
from .client_server import ClientServerClient, ClientServerServer
from .master_slave import (MasterSlaveClient, MasterSlaveMaster,
                           MasterSlaveSlave)

__all__ = [
    "PROTOCOLS", "ReplicationError", "ReplicationSubobject",
    "register_protocol",
    "ActiveClient", "ActiveReplica", "ActiveSequencer",
    "CachingClient", "ClientServerClient", "ClientServerServer",
    "MasterSlaveClient", "MasterSlaveMaster", "MasterSlaveSlave",
]
