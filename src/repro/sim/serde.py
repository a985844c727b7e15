"""Deterministic message-size estimation.

The simulator charges transfer time and traffic bytes per message.  To
keep accounting honest without actually serialising every payload, this
module estimates the encoded size of plain Python values the way a
simple binary codec would: fixed cost for scalars, length for
strings/bytes, recursive sum plus per-item overhead for containers.

Components that know better (e.g. file transfers) pass an explicit size
to the transport instead.
"""

from __future__ import annotations

from typing import Any

__all__ = ["encoded_size", "HEADER_OVERHEAD", "SCALAR_SIZE",
           "CONTAINER_ITEM_OVERHEAD"]

#: Fixed per-message framing overhead (addresses, ports, type tags),
#: roughly an IP+TCP/UDP header plus a small record header.
HEADER_OVERHEAD = 64

#: Cost of an int/float scalar.  Public so callers with fixed-shape
#: envelopes (the RPC layer) can precompute the constant part of a
#: message's size instead of re-walking the nested dict per message.
SCALAR_SIZE = 8
#: Per-item overhead inside containers (dict entries pay it twice:
#: once for the key, once for the value).
CONTAINER_ITEM_OVERHEAD = 4

_SCALAR_SIZE = SCALAR_SIZE
_CONTAINER_ITEM_OVERHEAD = CONTAINER_ITEM_OVERHEAD


def encoded_size(value: Any) -> int:
    """Estimated on-the-wire size of ``value`` in bytes (sans framing).

    Deterministic, order-independent for dicts, and total: a value of
    any other type (a subclass, a set, an object) is charged a flat
    record cost based on its repr length, so simulations never crash
    on exotic payloads.  This runs for every message the simulator
    carries, so types are matched exactly, not with ``isinstance``.
    """
    kind = type(value)
    if kind is str:
        # ASCII (the overwhelmingly common case for protocol fields)
        # needs no encode round-trip to know its UTF-8 length.
        return len(value) if value.isascii() else len(value.encode("utf-8"))
    if kind is int or kind is float:
        return _SCALAR_SIZE
    if kind is dict:
        total = 0
        for key, val in value.items():
            total += (encoded_size(key) + encoded_size(val)
                      + 2 * _CONTAINER_ITEM_OVERHEAD)
        return total
    if kind is list or kind is tuple:
        total = 0
        for item in value:
            total += encoded_size(item) + _CONTAINER_ITEM_OVERHEAD
        return total
    if kind is bytes:
        return len(value)
    if value is None or kind is bool:
        return 1
    return len(repr(value).encode("utf-8"))
