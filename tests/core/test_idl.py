"""Unit tests for interface declarations."""

import pytest

from repro.core.idl import IdlError, Interface, Mode
from tests.util import Counter, KvStore


def test_interface_collected_from_decorators():
    interface = KvStore.interface
    assert interface.mode("put") == Mode.WRITE
    assert interface.mode("get") == Mode.READ
    assert interface.mode("delete") == Mode.WRITE
    assert "size" in interface


def test_undeclared_method_rejected():
    with pytest.raises(IdlError):
        KvStore.interface.mode("snapshot_state")
    with pytest.raises(IdlError):
        KvStore.interface.spec("nonexistent")


def test_interface_per_class():
    assert "increment" in Counter.interface
    assert "increment" not in KvStore.interface


def test_interface_of_direct():
    interface = Interface.of(Counter)
    assert sorted(interface.methods) == ["increment", "value"]
    spec = interface.spec("increment")
    assert (spec.name, spec.mode) == ("increment", Mode.WRITE)
    with pytest.raises(IdlError, match="on interface Counter"):
        interface.spec("nonexistent")
