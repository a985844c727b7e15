"""Unit tests for object identifiers and contact addresses."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ids import ContactAddress, IdError, ObjectId
from tests.util import oid_from_seed


def test_generate_is_deterministic_per_rng():
    a = ObjectId.generate(random.Random(1))
    b = ObjectId.generate(random.Random(1))
    c = ObjectId.generate(random.Random(2))
    assert a == b
    assert a != c


def test_hex_round_trip():
    oid = oid_from_seed("gimp")
    assert ObjectId.from_hex(oid.hex) == oid
    assert len(oid.hex) == 40


def test_bad_hex_rejected():
    with pytest.raises(IdError):
        ObjectId.from_hex("zz")
    with pytest.raises(IdError):
        ObjectId(b"short")


def test_oid_hashable_and_distinct():
    oids = {oid_from_seed("pkg-%d" % i) for i in range(100)}
    assert len(oids) == 100


def test_shard_stable_and_in_range():
    oid = oid_from_seed("x")
    assert oid.shard(8) == oid.shard(8)
    assert 0 <= oid.shard(8) < 8
    with pytest.raises(IdError):
        oid.shard(0)


def test_shard_distributes_reasonably():
    buckets = [0] * 8
    for i in range(800):
        buckets[oid_from_seed("obj-%d" % i).shard(8)] += 1
    # Every bucket gets a meaningful share (SHA-based hashing).
    assert min(buckets) > 50


@given(st.binary(min_size=20, max_size=20))
def test_oid_hex_round_trip_property(data):
    oid = ObjectId(data)
    assert ObjectId.from_hex(oid.hex) == oid


def test_contact_address_wire_round_trip():
    address = ContactAddress("gos-1", 7100, "master_slave", role="master",
                             impl_id="gdn.package", site_path="eu/nl/ams/vu")
    restored = ContactAddress.from_wire(address.to_wire())
    assert restored == address
    assert restored.key() == ("gos-1", 7100, "master")
    assert address != address.to_wire()  # not an address


def test_contact_address_default_impl_id():
    address = ContactAddress("h", 7100, "client_server")
    assert address.impl_id == "client_server/client"


def test_contact_address_missing_field_rejected():
    with pytest.raises(IdError):
        ContactAddress.from_wire({"host": "h"})


def test_one_shard_holds_every_object():
    oid = oid_from_seed("gimp")
    assert oid.shard(1) == 0
    with pytest.raises(IdError):
        oid.shard(0)
