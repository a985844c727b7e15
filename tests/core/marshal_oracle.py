"""The seed commit's marshal encoder and decoder, frozen as an oracle.

``repro.core.marshal`` was rewritten for speed (exact-type dispatch,
precompiled structs, one join); the wire format may not move by a
byte.  This is the implementation it replaced, kept verbatim under
``tests/`` (not ``src/``: one implementation per behaviour) so that
``test_marshal.py`` can compare the two on generated values.  Do not
"improve" it.
"""

import struct
from typing import Any, Tuple

from repro.core.marshal import MarshalError

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_LIST = b"L"
_TAG_TUPLE = b"U"
_TAG_DICT = b"M"


def pack(value: Any) -> bytes:
    """Encode ``value`` into the tagged binary format."""
    out = bytearray()
    _encode(value, out)
    return bytes(out)


def _encode(value: Any, out: bytearray) -> None:
    if value is None:
        out += _TAG_NONE
    elif value is True:
        out += _TAG_TRUE
    elif value is False:
        out += _TAG_FALSE
    elif isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big",
                             signed=True)
        out += _TAG_INT + struct.pack(">I", len(raw)) + raw
    elif isinstance(value, float):
        out += _TAG_FLOAT + struct.pack(">d", value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += _TAG_STR + struct.pack(">I", len(raw)) + raw
    elif isinstance(value, bytes):
        out += _TAG_BYTES + struct.pack(">I", len(value)) + value
    elif isinstance(value, (list, tuple)):
        tag = _TAG_LIST if isinstance(value, list) else _TAG_TUPLE
        out += tag + struct.pack(">I", len(value))
        for item in value:
            _encode(item, out)
    elif isinstance(value, dict):
        out += _TAG_DICT + struct.pack(">I", len(value))
        # Sort keys for a canonical encoding (keys must be strings).
        try:
            items = sorted(value.items())
        except TypeError as exc:
            raise MarshalError("dict keys must be sortable strings") from exc
        for key, item in items:
            if not isinstance(key, str):
                raise MarshalError("dict keys must be str, got %r" % (key,))
            _encode(key, out)
            _encode(item, out)
    else:
        raise MarshalError("cannot marshal %r" % type(value).__name__)


def unpack(data: bytes) -> Any:
    """Decode a value previously produced by :func:`pack`."""
    value, offset = _decode(data, 0)
    if offset != len(data):
        raise MarshalError("trailing garbage after value")
    return value


def _decode(data: bytes, offset: int) -> Tuple[Any, int]:
    if offset >= len(data):
        raise MarshalError("truncated message")
    tag = data[offset:offset + 1]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_FLOAT:
        (value,) = struct.unpack_from(">d", data, offset)
        return value, offset + 8
    if tag in (_TAG_INT, _TAG_STR, _TAG_BYTES):
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 4
        raw = data[offset:offset + length]
        if len(raw) != length:
            raise MarshalError("truncated payload")
        offset += length
        if tag == _TAG_INT:
            return int.from_bytes(raw, "big", signed=True), offset
        if tag == _TAG_STR:
            return raw.decode("utf-8"), offset
        return raw, offset
    if tag in (_TAG_LIST, _TAG_TUPLE):
        (count,) = struct.unpack_from(">I", data, offset)
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _decode(data, offset)
            items.append(item)
        return (items if tag == _TAG_LIST else tuple(items)), offset
    if tag == _TAG_DICT:
        (count,) = struct.unpack_from(">I", data, offset)
        offset += 4
        result = {}
        for _ in range(count):
            key, offset = _decode(data, offset)
            value, offset = _decode(data, offset)
            result[key] = value
        return result, offset
    raise MarshalError("unknown tag %r at offset %d" % (tag, offset - 1))
