"""Unit and property tests for the opaque invocation codec."""

import enum
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.idl import Mode
from repro.core import marshal
from repro.core.marshal import (MarshalError, marshal_invocation,
                                marshal_result, pack, unmarshal_invocation,
                                unmarshal_result, unpack, unpack_sequence)
from repro.gns.dns.records import RRType
from tests.core import marshal_oracle as oracle


def test_scalar_round_trips():
    for value in (None, True, False, 0, -1, 2 ** 100, 3.25, "héllo", b"raw"):
        assert unpack(pack(value)) == value


def test_container_round_trips():
    value = {"files": [{"name": "a", "data": b"\x00" * 64}],
             "sizes": (1, 2, 3), "empty": [], "nested": {"k": None}}
    result = unpack(pack(value))
    assert result["files"] == value["files"]
    assert result["sizes"] == (1, 2, 3)


def test_canonical_dict_encoding():
    assert pack({"a": 1, "b": 2}) == pack({"b": 2, "a": 1})


def test_non_string_dict_keys_rejected():
    with pytest.raises(MarshalError):
        pack({1: "x"})


def test_unknown_type_rejected():
    with pytest.raises(MarshalError):
        pack(object())


def test_truncated_message_rejected():
    data = pack("hello world")
    with pytest.raises(MarshalError):
        unpack(data[:-3])


def test_trailing_garbage_rejected():
    with pytest.raises(MarshalError):
        unpack(pack(1) + b"x")


def test_invocation_round_trip():
    payload = marshal_invocation("getFileContents",
                                 {"path": "bin/gimp", "offset": 0})
    method, args = unmarshal_invocation(payload)
    assert method == "getFileContents"
    assert args == {"path": "bin/gimp", "offset": 0}


def test_result_round_trip():
    assert unmarshal_result(marshal_result([1, "two", b"3"])) == [1, "two",
                                                                  b"3"]


def test_result_is_not_an_invocation():
    with pytest.raises(MarshalError):
        unmarshal_invocation(marshal_result("x"))


# -- the seed encoder as oracle: same bytes, value for value -----------------

_values = st.recursive(
    st.none() | st.booleans() | st.integers() |
    st.integers(min_value=-2 ** 80, max_value=2 ** 80) |
    st.floats(allow_nan=False, allow_infinity=False) |
    st.text(max_size=40) | st.binary(max_size=40),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20)


@given(_values)
def test_pack_unpack_property(value):
    assert unpack(pack(value)) == value


@given(_values)
def test_pack_matches_the_seed_encoder_byte_for_byte(value):
    data = pack(value)
    assert data == oracle.pack(value)
    # ... and both decoders read it alike, types included (a tuple
    # stays a tuple, True stays True and not 1).
    assert unpack(data) == value
    assert repr(unpack(data)) == repr(oracle.unpack(data))


@given(_values)
def test_envelopes_match_the_seed_encoder(value):
    assert marshal_result(value) == oracle.pack({"r": value})
    assert unmarshal_result(oracle.pack({"r": value})) == value
    payload = marshal_invocation("someMethod", {"x": value})
    assert payload == oracle.pack({"m": "someMethod", "a": {"x": value}})
    assert unmarshal_invocation(payload) == ("someMethod", {"x": value})


class _Colour(enum.IntEnum):
    RED = 1
    HUGE = 2 ** 70


class _Text(str):
    pass


class _Listing(list):
    pass


@pytest.mark.parametrize("value", [
    True, False, 0, 1, -1, 255, 256, -2 ** 63, 2 ** 64, 2 ** 200,
    _Colour.RED, _Colour.HUGE, RRType.TXT, RRType.CNAME,
    _Text("sub"), _Listing([1, "two"]), 0.0, -0.0, 1e300, "", "naïve ☃",
    b"", (), [], {}, {"k": (None, [True, {"n": -7}])},
    {RRType.A: "a str-enum key is a str key"},
], ids=repr)
def test_subclasses_and_corner_values_encode_as_before(value):
    assert pack(value) == oracle.pack(value)
    assert repr(unpack(pack(value))) == repr(oracle.unpack(pack(value)))


def _refused_id(value) -> str:
    """The case's id without a heap address, so that it names the same
    case in every process."""
    if isinstance(value, memoryview):
        return "memoryview(%r)" % value.tobytes()
    return re.sub(r"<object object at 0x[0-9a-f]+>", "object()", repr(value))


@pytest.mark.parametrize("value", [
    {1: "x"}, {None: 1}, {"a": 1, 2: 3}, {b"k": 1}, {("t",): 1},
    object(), {"k": object()}, [1, {2, 3}], bytearray(b"x"),
    memoryview(b"x"), 1j, {"deep": [{"k": {4: 5}}]}, Mode.READ,
], ids=_refused_id)
def test_what_the_seed_encoder_refused_is_still_refused(value):
    with pytest.raises(MarshalError):
        oracle.pack(value)
    for _ in range(2):  # a refusal is not remembered as an encoding
        with pytest.raises(MarshalError):
            pack(value)


def test_key_memo_is_bounded_by_the_module_constant():
    assert marshal._encoded_key.cache_info().maxsize == \
        marshal.KEY_MEMO_SIZE
    wide = {"key-%d" % i: i for i in range(marshal.KEY_MEMO_SIZE + 100)}
    assert pack(wide) == oracle.pack(wide)
    assert marshal._encoded_key.cache_info().currsize == \
        marshal.KEY_MEMO_SIZE
    assert unpack(pack(wide)) == wide


@given(_values, st.data())
def test_truncated_input_rejected(value, data):
    encoded = pack(value)
    cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    with pytest.raises(MarshalError):
        unpack(encoded[:cut])


@given(_values, st.binary(min_size=1, max_size=8))
def test_trailing_garbage_rejected_property(value, garbage):
    with pytest.raises(MarshalError):
        unpack(pack(value) + garbage)


@pytest.mark.parametrize("data", [
    b"", b"?", b"S\x00\x00", b"S\x00\x00\x00\x02\xff\xfe",
    b"D\x00\x00", b"M\x00\x00\x00\x01", b"L\xff\xff\xff\xff",
    b"I\x00\x00\x00\x09\x01",
], ids=repr)
def test_corrupt_input_raises_marshal_error_only(data):
    with pytest.raises(MarshalError):
        unpack(data)


def test_envelope_decoders_refuse_other_messages():
    for payload in (pack({"x": 1}), pack([1, 2]), pack({"r": 1, "s": 2}),
                    pack("r"), b"", marshal_invocation("m", {})):
        with pytest.raises(MarshalError):
            unmarshal_result(payload)
    for payload in (pack({"m": "f"}), pack({"a": {}, "m": "f", "z": 0}),
                    pack({"a": {}, "n": "f"}), b"", marshal_result(1),
                    marshal_invocation("m", {}) + b"x"):
        with pytest.raises(MarshalError):
            unmarshal_invocation(payload)


# -- unpack_sequence: a concatenation of encodings ---------------------------


def test_unpack_sequence_reads_every_value_in_order():
    values = [{"version": 1, "op": "add"}, None, b"raw", [1, (2, "x")], -7]
    assert unpack_sequence(b"".join(pack(value) for value in values)) == \
        values


def test_unpack_sequence_of_nothing_is_empty():
    assert unpack_sequence(b"") == []


@pytest.mark.parametrize("data", [b"?", b"S\x00\x00\x00\x05abc",
                                  pack(1) + b"M\x00\x00\x00\x01",
                                  pack("x") + b"\xff"], ids=repr)
def test_unpack_sequence_refuses_corrupt_input(data):
    with pytest.raises(MarshalError):
        unpack_sequence(data)


@given(st.lists(_values, max_size=6))
def test_unpack_sequence_property(values):
    assert unpack_sequence(b"".join(map(pack, values))) == values


@given(st.lists(_values, min_size=1, max_size=6), st.data())
def test_unpack_sequence_rejects_a_cut_inside_a_value(values, data):
    encodings = [pack(value) for value in values]
    index = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
    if len(encodings[index]) < 2:
        encodings[index] = pack(str(values[index]))  # room to cut inside
    inside = data.draw(st.integers(min_value=1,
                                   max_value=len(encodings[index]) - 1))
    cut = sum(len(encoding) for encoding in encodings[:index]) + inside
    with pytest.raises(MarshalError):
        unpack_sequence(b"".join(encodings)[:cut])
