"""Unit tests for TSIG message signatures."""

from repro.gns.dns.tsig import (TsigKey, TsigKeyring, sign_message,
                                verify_message)


def _keyring(key):
    ring = TsigKeyring()
    ring.add(key)
    return ring


def test_sign_and_verify():
    key = TsigKey("gdn-key", b"secret")
    message = {"zone": "gdn.vu.nl", "adds": [{"name": "x", "type": "TXT",
                                              "ttl": 60, "data": "d"}]}
    signed = sign_message(message, key)
    assert verify_message(signed, _keyring(key))


def test_tampered_message_rejected():
    key = TsigKey("gdn-key", b"secret")
    signed = sign_message({"zone": "gdn.vu.nl", "adds": []}, key)
    signed["adds"] = [{"name": "evil", "type": "TXT", "ttl": 60,
                       "data": "d"}]
    assert not verify_message(signed, _keyring(key))


def test_unknown_key_rejected():
    key = TsigKey("gdn-key", b"secret")
    other = TsigKey("other-key", b"secret")
    signed = sign_message({"zone": "z"}, other)
    assert not verify_message(signed, _keyring(key))


def test_wrong_secret_rejected():
    signed = sign_message({"zone": "z"}, TsigKey("gdn-key", b"wrong"))
    assert not verify_message(signed, _keyring(TsigKey("gdn-key", b"right")))


def test_unsigned_message_rejected():
    assert not verify_message({"zone": "z"},
                              _keyring(TsigKey("k", b"s")))


def test_signature_ignores_field_order():
    key = TsigKey("k", b"s")
    a = sign_message({"zone": "z", "adds": [], "deletes": []}, key)
    b = sign_message({"deletes": [], "adds": [], "zone": "z"}, key)
    assert a["tsig"]["mac"] == b["tsig"]["mac"]


def test_a_signature_survives_reordered_keys_inside_a_list():
    key = TsigKey("gdn-key", b"secret")
    signed = sign_message({"adds": [{"name": "x", "ttl": 60}]}, key)
    signed["adds"] = [{"ttl": 60, "name": "x"}]
    assert verify_message(signed, _keyring(key))
