"""TSIG: shared-secret transaction signatures for DNS messages.

The paper (§6.3) relies on "BIND's TSIG security feature" to protect
zone updates between the GNS Naming Authority and the name servers.
We implement the essential mechanism: an HMAC over a canonical
rendering of the message, identified by a key name, verified by the
receiving server against its configured key ring.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Dict, Optional

__all__ = ["TsigKey", "TsigKeyring", "sign_message", "verify_message"]


class TsigKey:
    """A named shared secret."""

    __slots__ = ("name", "secret")

    def __init__(self, name: str, secret: bytes):
        self.name = name
        self.secret = secret


class TsigKeyring:
    """The set of keys a server accepts."""

    def __init__(self):
        self._keys: Dict[str, bytes] = {}

    def add(self, key: TsigKey) -> None:
        self._keys[key.name] = key.secret

    def secret_for(self, key_name: str) -> Optional[bytes]:
        return self._keys.get(key_name)


def _canonical(message: dict) -> bytes:
    """A deterministic rendering of the signable message fields."""

    def render(value) -> str:
        if isinstance(value, dict):
            return "{%s}" % ",".join(
                "%s:%s" % (key, render(value[key]))
                for key in sorted(value))
        if isinstance(value, (list, tuple)):
            return "[%s]" % ",".join(render(item) for item in value)
        return repr(value)

    signable = {key: value for key, value in message.items()
                if key != "tsig"}
    return render(signable).encode("utf-8")


def sign_message(message: dict, key: TsigKey) -> dict:
    """Return a copy of ``message`` with a ``tsig`` stanza attached."""
    mac = hmac.new(key.secret, _canonical(message),
                   hashlib.sha256).hexdigest()
    signed = dict(message)
    signed["tsig"] = {"key": key.name, "mac": mac}
    return signed


def verify_message(message: dict, keyring: TsigKeyring) -> bool:
    """Check the ``tsig`` stanza against the server's key ring."""
    stanza = message.get("tsig")
    if not isinstance(stanza, dict):
        return False
    secret = keyring.secret_for(stanza.get("key", ""))
    if secret is None:
        return False
    expected = hmac.new(secret, _canonical(message),
                        hashlib.sha256).hexdigest()
    return hmac.compare_digest(expected, stanza.get("mac", ""))
