"""Simulated stable storage: the disk of a host, which outlives crashes.

A host crash destroys every address space on the machine but not its
disk (``Host.disk``).  A restarted host's daemons are built again and
read their :class:`StableStore` namespaces before it answers: object
servers their replicas (§4), GLS directory nodes their records (§7)
and a DNS primary its zones; what no disk holds comes back empty.
"""

from __future__ import annotations

from copy import deepcopy
from typing import Any, Dict, Generator

__all__ = ["StableStore", "DISK_WRITE_LATENCY", "DISK_READ_LATENCY"]

#: Simulated latency of a stable write / read, seconds.
DISK_WRITE_LATENCY = 0.005
DISK_READ_LATENCY = 0.002


class StableStore:
    """One daemon's namespaced view of its host's disk.

    A record saved belongs to the disk, and a reload gets a deep copy:
    no two incarnations share a part of one."""

    def __init__(self, host, namespace: str):
        self.host = host
        self.namespace = namespace
        self.writes = 0
        self.reads = 0

    def _key(self, key: str) -> str:
        return "%s/%s" % (self.namespace, key)

    def save(self, key: str, record: dict) -> Generator:
        """Write one record through to disk (simulated latency)."""
        yield self.host.sim.timeout(DISK_WRITE_LATENCY)
        self.host.disk[self._key(key)] = dict(record)
        self.writes += 1

    def load_all(self) -> Generator[Any, Any, Dict[str, dict]]:
        """All records in this namespace."""
        yield self.host.sim.timeout(DISK_READ_LATENCY)
        self.reads += 1
        prefix = "%s/" % self.namespace
        return {key[len(prefix):]: deepcopy(value)
                for key, value in self.host.disk.items()
                if key.startswith(prefix)}

    def remove(self, key: str) -> Generator:
        yield self.host.sim.timeout(DISK_WRITE_LATENCY)
        self.host.disk.pop(self._key(key), None)
        self.writes += 1
