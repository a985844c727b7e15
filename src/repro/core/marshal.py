"""Opaque invocation marshalling (paper §3.3).

Replication and communication subobjects "operate only on opaque
invocation messages in which method identifiers and parameters have
been encoded".  This module is that encoding: a small, deterministic,
self-describing binary format (tag + length + value) covering the value
types DSO methods use.  Because payloads really are ``bytes``, the
simulator's traffic accounting of invocation messages is exact.
"""

from __future__ import annotations

import functools
import struct
from typing import Any, Callable, Dict, List, Tuple

__all__ = [
    "pack",
    "unpack",
    "unpack_sequence",
    "marshal_invocation",
    "unmarshal_invocation",
    "marshal_result",
    "unmarshal_result",
    "MarshalError",
]


class MarshalError(Exception):
    """Raised on encoding/decoding failures."""


# The wire format, one tag byte then:
#   N T F            nothing (None, True, False)
#   D                8 bytes, big-endian IEEE double
#   I S B            u32 length, then that many bytes (two's-complement
#                    big-endian int / UTF-8 / raw)
#   L U              u32 count, then the items (list / tuple)
#   M                u32 count, then key, value pairs in sorted key
#                    order (keys are strings): one encoding per dict
_U32 = struct.Struct(">I").pack
_F64 = struct.Struct(">d").pack
_U32_AT = struct.Struct(">I").unpack_from
_F64_AT = struct.Struct(">d").unpack_from

_Append = Callable[[bytes], None]

#: Distinct dict keys whose encoding is remembered (LRU beyond that):
#: a pure function of the key, so an entry is never stale.
KEY_MEMO_SIZE = 1024


def pack(value: Any) -> bytes:
    """Encode ``value`` into the tagged binary format."""
    # Pieces, joined once: a large ``bytes`` value is copied once.
    parts: List[bytes] = []
    _encode(value, parts.append)
    return b"".join(parts)


def _encode(value: Any, append: _Append) -> None:
    # Exact type first: one dict probe for what nearly every value is.
    (_ENCODERS.get(type(value)) or _subclass_encoder(value))(value, append)


def _encode_none(value: None, append: _Append) -> None:
    append(b"N")


def _encode_bool(value: bool, append: _Append) -> None:
    append(b"T" if value else b"F")


def _encode_int(value: int, append: _Append) -> None:
    raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big",
                         signed=True)
    append(b"I" + _U32(len(raw)) + raw)


def _encode_float(value: float, append: _Append) -> None:
    append(b"D" + _F64(value))


def _encode_str(value: str, append: _Append) -> None:
    raw = value.encode("utf-8")
    append(b"S" + _U32(len(raw)) + raw)


def _encode_bytes(value: bytes, append: _Append) -> None:
    append(b"B" + _U32(len(value)))
    append(value)


def _encode_sequence(value: Any, append: _Append) -> None:
    append((b"L" if isinstance(value, list) else b"U") + _U32(len(value)))
    for item in value:
        _encode(item, append)


def _encode_dict(value: dict, append: _Append) -> None:
    append(b"M" + _U32(len(value)))
    # Sort keys for a canonical encoding (keys must be strings).
    try:
        keys = sorted(value)
    except TypeError as exc:
        raise MarshalError("dict keys must be sortable strings") from exc
    for key in keys:
        append(_encoded_key(key))
        _encode(value[key], append)


@functools.lru_cache(maxsize=KEY_MEMO_SIZE)
def _encoded_key(key: str) -> bytes:
    # Memoised: messages draw their keys from a small vocabulary
    # ("id", "method", "path", ...) and are mostly keys.
    if not isinstance(key, str):
        raise MarshalError("dict keys must be str, got %r" % (key,))
    return pack(key)


_ENCODERS: Dict[type, Callable[[Any, _Append], None]] = {
    type(None): _encode_none, bool: _encode_bool, int: _encode_int,
    float: _encode_float, str: _encode_str, bytes: _encode_bytes,
    list: _encode_sequence, tuple: _encode_sequence, dict: _encode_dict}


def _subclass_encoder(value: Any) -> Callable[[Any, _Append], None]:
    """A subclass encodes as what it extends: an ``IntEnum`` member as
    its int, a ``str``-mixin enum member (``RRType``) as its string
    value."""
    for base in (int, float, str, bytes, list, tuple, dict):
        if isinstance(value, base):
            return _ENCODERS[base]
    raise MarshalError("cannot marshal %r" % type(value).__name__)


def unpack(data: bytes) -> Any:
    """Decode a value previously produced by :func:`pack`."""
    return _decode_rest(data, 0)


def unpack_sequence(data: bytes) -> List[Any]:
    """Decode a concatenation of :func:`pack` encodings, in order.

    ``unpack_sequence(b"".join(map(pack, values))) == values``: an
    append-only log kept as its encodings grows by concatenation and is
    decoded only when it is read.
    """
    values = []
    offset = 0
    end = len(data)
    while offset < end:
        value, offset = _decode(data, offset)
        values.append(value)
    return values


def _decode_rest(data: bytes, offset: int) -> Any:
    """The one value that is all of ``data`` from ``offset`` on."""
    value, offset = _decode(data, offset)
    if offset != len(data):
        raise MarshalError("trailing garbage after value")
    return value


def _decode(data: bytes, offset: int) -> Tuple[Any, int]:
    # Tags are compared as ints, commonest first.
    try:
        tag = data[offset]
        offset += 1
        if tag == 0x53:  # S
            (length,) = _U32_AT(data, offset)
            offset += 4
            end = offset + length
            raw = data[offset:end]
            if len(raw) != length:
                raise MarshalError("truncated payload")
            return raw.decode("utf-8"), end
        if tag == 0x4D:  # M
            (count,) = _U32_AT(data, offset)
            offset += 4
            result = {}
            for _ in range(count):
                key, offset = _decode(data, offset)
                result[key], offset = _decode(data, offset)
            return result, offset
        if tag == 0x42 or tag == 0x49:  # B, I
            (length,) = _U32_AT(data, offset)
            offset += 4
            end = offset + length
            raw = data[offset:end]
            if len(raw) != length:
                raise MarshalError("truncated payload")
            if tag == 0x49:
                return int.from_bytes(raw, "big", signed=True), end
            return raw, end
        if tag == 0x4C or tag == 0x55:  # L, U
            (count,) = _U32_AT(data, offset)
            offset += 4
            items = []
            for _ in range(count):
                item, offset = _decode(data, offset)
                items.append(item)
            return (items if tag == 0x4C else tuple(items)), offset
        if tag == 0x4E:  # N
            return None, offset
        if tag == 0x54:  # T
            return True, offset
        if tag == 0x46:  # F
            return False, offset
        if tag == 0x44:  # D
            (value,) = _F64_AT(data, offset)
            return value, offset + 8
    except (IndexError, struct.error) as exc:
        raise MarshalError("truncated message") from exc
    except UnicodeDecodeError as exc:
        raise MarshalError("corrupt string: %s" % exc) from exc
    raise MarshalError("unknown tag %r at offset %d"
                       % (bytes((tag,)), offset - 1))


# An invocation is {"a": args, "m": method} and a result {"r": value}:
# fixed bytes around one or two values, written and checked as such.
_INVOCATION_HEAD = b"M" + _U32(2) + pack("a")
_INVOCATION_METHOD = pack("m")
_RESULT_HEAD = b"M" + _U32(1) + pack("r")


def marshal_invocation(method: str, args: dict) -> bytes:
    """Encode a method invocation into an opaque message."""
    parts = [_INVOCATION_HEAD]
    _encode(args, parts.append)
    parts.append(_INVOCATION_METHOD)
    _encode(method, parts.append)
    return b"".join(parts)


def unmarshal_invocation(payload: bytes) -> Tuple[str, dict]:
    if payload.startswith(_INVOCATION_HEAD):
        args, offset = _decode(payload, len(_INVOCATION_HEAD))
        if payload.startswith(_INVOCATION_METHOD, offset):
            offset += len(_INVOCATION_METHOD)
            return _decode_rest(payload, offset), args
    raise MarshalError("not an invocation message")


def marshal_result(value: Any) -> bytes:
    """Encode a method result (or fault) into an opaque message."""
    parts = [_RESULT_HEAD]
    _encode(value, parts.append)
    return b"".join(parts)


def unmarshal_result(payload: bytes) -> Any:
    if not payload.startswith(_RESULT_HEAD):
        raise MarshalError("not a result message")
    return _decode_rest(payload, len(_RESULT_HEAD))
