"""TLS-style secure channels over simulated connections (paper §6.3).

"We replace all communication between GDN parties by integrity-
protected and authenticated communication … all TCP connections between
GDN parties are replaced by connections secured via the TLS protocol."

The handshake is a faithful miniature of TLS-with-RSA-key-transport
(a malformed message fails it with :class:`HandshakeError`):

1. ``hello``         client nonce, desired cipher options
2. ``server-hello``  server nonce + certificate (server always
                     authenticates: one-way mode, Figure 4 arrows 1/2)
3. ``key-exchange``  RSA-encrypted premaster secret (+ client
                     certificate and a transcript signature when the
                     server demands two-way authentication, arrow 3)
4. ``finished``      HMAC over the transcript under the derived keys

Data records carry sequence-numbered HMACs; tampering or replay raises
:class:`SecurityError` at the receiver.  Encryption itself is modelled
as a per-byte CPU cost (the payload is not actually scrambled — the
simulator has no on-path eavesdropper), which is exactly the knob the
paper worries about: "we are paying for something we do not need:
confidentiality".  ``encryption=False`` gives the integrity-only
variant for that ablation (experiment E4).  That CPU is delay on the
record's one arrival timer: each end spends ``record_cost(w)`` per
record, one record at a time, and a record is verified and handed over
once both ends are done with it — an instant the receiving record layer
computes as the record is sent (:attr:`~repro.sim.transport.Inbox.admit`).
End of stream waits for the last record; one still being verified when
the connection breaks is lost like one on the wire.

A :class:`SecureChannel` exposes ``send``/``recv``/``close`` plus
``peer_principal`` and is accepted anywhere a raw connection is (the
RPC layer's ``channel_wrapper``/``channel_factory`` hooks).
"""

from __future__ import annotations

from typing import Any, Generator, NoReturn, Optional

from ..core.marshal import MarshalError, pack
from ..sim.kernel import Event
from ..sim.serde import encoded_size
from ..sim.transport import Connection, ConnectionClosed, Inbox
from .certs import Certificate, CertificateError, Credentials
from .crypto import hmac_sha256, sha256

__all__ = ["SecureChannel", "SecurityError", "HandshakeError", "CostModel",
           "client_wrapper", "server_factory"]

_MAC_SIZE = 32
_RECORD_OVERHEAD = 5  # TLS record header
#: Largest carried record size ("w") a receiver believes: above any
#: honest record here, far below what would stall it meaningfully.
_MAX_CARRIED_RECORD_SIZE = 1 << 24  # 16 MiB


class SecurityError(Exception):
    """Integrity violation on an established channel."""


class HandshakeError(SecurityError):
    """Authentication failed while establishing a channel."""


class CostModel:
    """CPU costs of cryptographic operations (seconds).

    Defaults approximate year-2000 commodity hardware, where the
    paper's concern about "superfluous encryption" was real: ~8 ms per
    RSA private-key operation, ~20 MB/s symmetric encryption,
    ~100 MB/s HMAC.
    """

    def __init__(self, rsa_private_op: float = 0.008,
                 rsa_public_op: float = 0.0005,
                 encrypt_per_byte: float = 5.0e-8,
                 mac_per_byte: float = 1.0e-8):
        self.rsa_private_op = rsa_private_op
        self.rsa_public_op = rsa_public_op
        self.encrypt_per_byte = encrypt_per_byte
        self.mac_per_byte = mac_per_byte

    def record_cost(self, size: int, encryption: bool) -> float:
        return size * self.mac_per_byte + (
            size * self.encrypt_per_byte if encryption else 0.0)


DEFAULT_COSTS = CostModel()
_END = object()  # the end of stream, to _RecordLayer.admit


def _mac(key: bytes, seq: int, payload: Any) -> bytes:
    return hmac_sha256(key, pack(payload) + seq.to_bytes(8, "big"))


class _RecordLayer(Inbox):
    """A secure channel's record layer: its cipher choice and costs, and
    its receiving side, installed as the connection's inbox.  The client
    installs it before the server sends ``finished``, so records right
    behind that are admitted too (``handshake_reply`` passes it as is)."""

    __slots__ = ("_key", "encryption", "costs", "_seq", "_busy",
                 "_clear_admit", "_clear_put", "integrity_failures")

    def __init__(self, conn: Connection, key: bytes, encryption: bool,
                 costs: CostModel, handshake_reply: bool = False):
        super().__init__(conn.sim)
        self._key = key
        self.encryption = encryption
        self.costs = costs
        self._seq = 0
        self._busy = 0.0  # when this end is done with its last record
        self._clear_admit = self._clear_put = handshake_reply
        self.integrity_failures = 0
        conn.receive_into(self)

    def admit(self, arrival: float, frame: Any = _END) -> float:
        if frame is _END:
            return max(arrival, self._busy)
        if self._clear_admit:
            self._clear_admit = False
            return arrival
        # The carried size "w" spares a walk of the payload, but it is
        # not MAC-covered: a forged petabyte would stall every record
        # queued behind it, a negative size would be free.  Outside a
        # sane range the receiver measures what was actually sent.
        size = frame.get("w") if isinstance(frame, dict) else None
        if not (isinstance(size, int)
                and 0 <= size <= _MAX_CARRIED_RECORD_SIZE):
            size = encoded_size(frame)
        self._busy = max(arrival, self._busy) + self.costs.record_cost(
            size, self.encryption)
        return self._busy

    def put_inline(self, frame: Any) -> None:
        if self._clear_put:
            self._clear_put = False
            Inbox.put_inline(self, frame)
            return
        # A forged frame can carry anything (a sequence number that is
        # no number, a payload no sender could have marshalled): what
        # cannot be MACed was not sent by the peer.
        seq = self._seq + 1
        try:
            genuine = (isinstance(frame, dict) and frame.get("s") == seq
                       and frame.get("m") == _mac(self._key, seq,
                                                  frame.get("p")))
        except MarshalError:
            genuine = False
        if genuine:
            self._seq = seq
            Inbox.put_inline(self, frame["p"])
        else:
            self.integrity_failures += 1
            self.put_failure(SecurityError(
                "record failed integrity check (tamper or replay)"))


class SecureChannel:
    """An authenticated, integrity-protected channel over a connection."""

    def __init__(self, conn: Connection, send_key: bytes,
                 records: _RecordLayer, peer_principal: Optional[str]):
        self.conn = conn
        #: Authenticated identity of the peer (None if unauthenticated).
        self.peer_principal = peer_principal
        self._send_key = send_key
        self._seq_out = 0
        self._busy = 0.0  # when this end is done with its last record
        self._records = records
        self.closed = False

    @property
    def broken(self) -> bool:
        return self.conn.broken

    @property
    def integrity_failures(self) -> int:
        return self._records.integrity_failures

    def send(self, payload: Any, size: Optional[int] = None) -> int:
        """Send an authenticated record; returns the charged size."""
        if self.closed:
            raise ConnectionClosed("send on closed secure channel")
        body = size if size is not None else encoded_size(payload)
        wire = body + _MAC_SIZE + _RECORD_OVERHEAD
        self._seq_out += 1
        frame = {"s": self._seq_out, "p": payload,
                 "m": _mac(self._send_key, self._seq_out, payload), "w": wire}
        departure = max(self.conn.sim.now, self._busy) + \
            self._records.costs.record_cost(wire, self._records.encryption)
        self.conn.send(frame, size=wire, departure=departure)
        self._busy = departure
        return wire

    def recv(self) -> Event:
        """Event with the next verified payload; fails on close/tamper."""
        return self._records.get()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.conn.close()
        self._records.close("secure channel closed")


# ---------------------------------------------------------------------------
# Handshake
# ---------------------------------------------------------------------------


def _derive_keys(premaster: int, client_nonce: bytes, server_nonce: bytes):
    material = sha256(premaster.to_bytes(64, "big") + client_nonce
                      + server_nonce)
    return (sha256(material + b"c2s"), sha256(material + b"s2c"))


def _fail(conn: Connection, reason: Any, alert: str = "") -> NoReturn:
    """End the handshake: send ``alert`` (if any), close, raise."""
    if alert:
        conn.send({"type": "alert", "reason": alert}, size=32)
    conn.close()
    raise HandshakeError(reason)


def _expect(conn: Connection, message: Any, kind: str, alert: str = "",
            **fields: type) -> dict:
    """``message`` if it is a ``kind`` message whose ``fields`` have
    the given types; an alert or anything else fails the handshake."""
    if isinstance(message, dict) and message.get("type") == "alert":
        _fail(conn, message.get("reason", "alert"))
    if not (isinstance(message, dict) and message.get("type") == kind
            and all(isinstance(message.get(name), cls)
                    for name, cls in fields.items())):
        _fail(conn, "malformed %s" % kind, alert)
    return message


def client_wrapper(credentials: Optional[Credentials] = None,
                   trust: Optional[Credentials] = None,
                   expected_server: Optional[str] = None,
                   encryption: bool = True,
                   costs: CostModel = DEFAULT_COSTS):
    """Channel wrapper performing the client side of the handshake.

    ``credentials`` (optional) are offered when the server demands
    two-way authentication; ``trust`` supplies the root certificates
    when the client itself has no credentials (browsers).  Returns a
    function usable as ``channel_wrapper`` in the RPC layer.
    """
    verifier = credentials or trust
    if verifier is None:
        raise HandshakeError("client needs trust roots to verify servers")

    def wrap(conn: Connection) -> Generator[Any, Any, SecureChannel]:
        sim = conn.sim
        rng = conn.local.network.rng
        client_nonce = bytes(rng.getrandbits(8) for _ in range(16))
        conn.send({"type": "hello", "nonce": client_nonce,
                   "encryption": encryption}, size=48)
        try:
            server_hello = yield conn.recv()
        except ConnectionClosed:
            raise HandshakeError("server closed during handshake")
        server_nonce = _expect(conn, server_hello, "server-hello",
                               nonce=bytes)["nonce"]
        try:
            server_cert = Certificate.from_wire(server_hello.get("cert"))
        except CertificateError as exc:
            _fail(conn, str(exc))
        yield sim.timeout(costs.rsa_public_op)  # verify the certificate
        if not verifier.trusts(server_cert):
            _fail(conn, "untrusted server certificate %r"
                  % server_cert.subject)
        if expected_server not in (None, server_cert.subject):
            _fail(conn, "server identity mismatch: expected %r, got %r"
                  % (expected_server, server_cert.subject))
        negotiated_encryption = bool(server_hello.get("encryption",
                                                      encryption))
        premaster = rng.getrandbits(256)
        yield sim.timeout(costs.rsa_public_op)  # RSA-encrypt premaster
        encrypted = server_cert.public_key.encrypt_int(premaster)
        exchange = {"type": "key-exchange", "premaster": encrypted}
        size = 96
        client_auth = server_hello.get("client_auth", "none")
        if client_auth == "required" and credentials is None:
            _fail(conn, "server demands a client certificate")
        if client_auth in ("required", "optional") and credentials is not None:
            transcript = sha256(client_nonce + server_nonce)
            yield sim.timeout(costs.rsa_private_op)  # sign the transcript
            exchange["cert"] = credentials.certificate.to_wire()
            exchange["signature"] = credentials.keypair.sign(transcript)
            size += credentials.certificate.wire_size()
        conn.send(exchange, size=size)
        send_key, recv_key = _derive_keys(premaster, client_nonce,
                                          server_nonce)
        records = _RecordLayer(conn, recv_key, negotiated_encryption, costs,
                               handshake_reply=True)
        try:
            finished = yield conn.recv()
        except ConnectionClosed:
            raise HandshakeError("server rejected the handshake")
        if _expect(conn, finished, "finished").get("mac") != hmac_sha256(
                recv_key, client_nonce + server_nonce):
            _fail(conn, "bad finished MAC from server")
        return SecureChannel(conn, send_key, records, server_cert.subject)

    return wrap


def server_factory(credentials: Credentials,
                   client_auth: str = "none",
                   encryption: bool = True,
                   costs: CostModel = DEFAULT_COSTS):
    """Channel factory performing the server side of the handshake.

    ``client_auth`` selects the authentication mode toward callers:

    * ``"none"``     — clients stay anonymous (browsers, Fig 4 arrow 1);
    * ``"optional"`` — GDN hosts present certificates and get verified
      principals, user machines connect anonymously (object servers
      serving both peers and proxies, arrows 2/3);
    * ``"required"`` — two-way authentication only (moderator-facing
      services, arrow 3).

    Returns a function usable as ``channel_factory`` in the RPC layer.
    """
    if client_auth not in ("none", "optional", "required"):
        raise HandshakeError("bad client_auth mode %r" % client_auth)

    def wrap(conn: Connection) -> Generator[Any, Any, SecureChannel]:
        sim = conn.sim
        rng = conn.local.network.rng
        try:
            hello = yield conn.recv()
        except ConnectionClosed:
            raise HandshakeError("client closed during handshake")
        client_nonce = _expect(conn, hello, "hello", alert="bad hello",
                               nonce=bytes)["nonce"]
        negotiated_encryption = encryption and bool(
            hello.get("encryption", True))
        server_nonce = bytes(rng.getrandbits(8) for _ in range(16))
        conn.send({"type": "server-hello", "nonce": server_nonce,
                   "cert": credentials.certificate.to_wire(),
                   "client_auth": client_auth,
                   "encryption": negotiated_encryption},
                  size=64 + credentials.certificate.wire_size())
        try:
            exchange = yield conn.recv()
        except ConnectionClosed:
            raise HandshakeError("client abandoned the handshake")
        _expect(conn, exchange, "key-exchange", premaster=int)
        yield sim.timeout(costs.rsa_private_op)  # RSA-decrypt premaster
        premaster = credentials.keypair.decrypt_int(exchange["premaster"])
        client_cert: Optional[Certificate] = None
        wire = exchange.get("cert")
        if wire is None and client_auth == "required":
            _fail(conn, "client presented no certificate",
                  alert="client certificate required")
        if wire is not None and client_auth != "none":
            transcript = sha256(client_nonce + server_nonce)
            yield sim.timeout(2 * costs.rsa_public_op)  # cert + signature
            signature = exchange.get("signature")
            try:
                client_cert = Certificate.from_wire(wire)
            except CertificateError:
                pass
            if not (client_cert and isinstance(signature, int)
                    and credentials.trusts(client_cert)
                    and client_cert.public_key.verify(transcript, signature)):
                _fail(conn, "client authentication failed",
                      alert="client authentication failed")
        recv_key, send_key = _derive_keys(premaster, client_nonce,
                                          server_nonce)
        records = _RecordLayer(conn, recv_key, negotiated_encryption, costs)
        conn.send({"type": "finished",
                   "mac": hmac_sha256(send_key, client_nonce + server_nonce)},
                  size=48)
        return SecureChannel(conn, send_key, records,
                             client_cert.subject if client_cert else None)

    return wrap
