"""Record types stored by GLS directory nodes (paper §3.5).

"For each DSO that has local representatives in the node's domain, a
directory node stores either the actual contact address … or a set of
forwarding pointers.  A forwarding pointer points to a child directory
node and indicates that a contact address can be found somewhere in the
subtree rooted at that child node."
"""

from __future__ import annotations

from typing import List, Set

__all__ = ["NodeRecord"]


class NodeRecord:
    """Per-OID state at one directory (sub)node.

    A record can simultaneously hold contact addresses (stored at this
    node's level) and forwarding pointers (replicas registered deeper
    in other child domains); lookups prefer local contact addresses.
    """

    __slots__ = ("contact_addresses", "forwarding_pointers")

    def __init__(self):
        self.contact_addresses: List[dict] = []
        self.forwarding_pointers: Set[str] = set()

    @property
    def empty(self) -> bool:
        return not self.contact_addresses and not self.forwarding_pointers

    def add_address(self, ca_wire: dict) -> bool:
        """Idempotent insert; returns True if the address was new."""
        if ca_wire in self.contact_addresses:
            return False
        self.contact_addresses.append(ca_wire)
        return True

    def remove_address(self, ca_wire: dict) -> bool:
        if ca_wire in self.contact_addresses:
            self.contact_addresses.remove(ca_wire)
            return True
        return False

    def add_pointer(self, child_path: str) -> bool:
        """Idempotent insert; returns True if the pointer was new."""
        if child_path in self.forwarding_pointers:
            return False
        self.forwarding_pointers.add(child_path)
        return True

    def remove_pointer(self, child_path: str) -> bool:
        if child_path in self.forwarding_pointers:
            self.forwarding_pointers.remove(child_path)
            return True
        return False

    def to_wire(self) -> dict:
        return {"cas": list(self.contact_addresses),
                "ptrs": sorted(self.forwarding_pointers)}

    @classmethod
    def from_wire(cls, data: dict) -> "NodeRecord":
        record = cls()
        record.contact_addresses = list(data.get("cas", []))
        record.forwarding_pointers = set(data.get("ptrs", []))
        return record

    def __repr__(self) -> str:
        return ("NodeRecord(%d addresses, %d pointers)"
                % (len(self.contact_addresses),
                   len(self.forwarding_pointers)))
