"""TLS-style secure channels over simulated connections (paper §6.3).

"We replace all communication between GDN parties by integrity-
protected and authenticated communication … all TCP connections between
GDN parties are replaced by connections secured via the TLS protocol."

The handshake is a faithful miniature of TLS-with-RSA-key-transport:

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
variant for that ablation (experiment E4).

A :class:`SecureChannel` exposes ``send``/``recv``/``close`` plus
``peer_principal`` and is accepted anywhere a raw connection is (the
RPC layer's ``channel_wrapper``/``channel_factory`` hooks).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..core.marshal import MarshalError, pack
from ..sim.kernel import Event
from ..sim.serde import encoded_size
from ..sim.transport import Connection, ConnectionClosed, Inbox
from .certs import Certificate, Credentials
from .crypto import hmac_sha256, sha256

__all__ = ["SecureChannel", "SecurityError", "HandshakeError", "CostModel",
           "client_wrapper", "server_factory"]

_MAC_SIZE = 32
_RECORD_OVERHEAD = 5  # TLS record header
#: Upper bound on a record's carried wire size ("w") the receiver
#: will believe without re-measuring — comfortably above any honest
#: record in this reproduction, far below what a spoofed declared
#: size would need to stall a recv pump meaningfully.
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
        cost = size * self.mac_per_byte
        if encryption:
            cost += size * self.encrypt_per_byte
        return cost


DEFAULT_COSTS = CostModel()

_CLOSED = "secure channel closed"


class SecureChannel:
    """An authenticated, integrity-protected channel over a connection."""

    def __init__(self, conn: Connection, send_key: bytes, recv_key: bytes,
                 peer_certificate: Optional[Certificate], encryption: bool,
                 costs: CostModel):
        self.conn = conn
        self.host = conn.local
        self.sim = conn.sim
        self.encryption = encryption
        self.costs = costs
        self.peer_certificate = peer_certificate
        #: Authenticated identity of the peer (None if unauthenticated).
        self.peer_principal = (peer_certificate.subject
                               if peer_certificate else None)
        self._send_key = send_key
        self._recv_key = recv_key
        self._seq_out = 0
        self._seq_in = 0
        self.closed = False
        self.records_sent = 0
        self.integrity_failures = 0
        self._outbox = self.sim.store()
        self._inbox = Inbox(self.sim)
        self._pumps = [self.host.spawn(self._send_pump()),
                       self.host.spawn(self._recv_pump())]

    # -- data path ----------------------------------------------------------

    @property
    def broken(self) -> bool:
        return self.conn.broken

    def send(self, payload: Any, size: Optional[int] = None) -> int:
        """Queue an authenticated record; returns the charged size."""
        if self.closed:
            raise ConnectionClosed("send on closed secure channel")
        body = size if size is not None else encoded_size(payload)
        wire = body + _MAC_SIZE + _RECORD_OVERHEAD
        self._seq_out += 1
        mac = self._mac(self._send_key, self._seq_out, payload)
        # The record carries its own wire size ("w"): the sender
        # already measured the payload once, so the receiving pump
        # charges CPU from the carried size instead of re-walking the
        # nested payload per record.  ("w" is framing metadata — it is
        # not covered by the MAC; the receiver sanity-bounds it and
        # falls back to an honest walk when it is missing or forged.)
        frame = {"s": self._seq_out, "p": payload, "m": mac, "w": wire}
        # An idle send pump takes the record in this frame and arms
        # its cost timer at once; a busy one finds it in the backlog.
        self._outbox.put_inline((frame, wire))
        return wire

    def recv(self) -> Event:
        """Event with the next verified payload; fails on close/tamper.

        The same receive-side hand-off as a plain connection's
        (:class:`~repro.sim.transport.Inbox`): the receive pump fires
        this event from the frame its cost timer resumed it in.
        """
        return self._inbox.get()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.conn.close()
        for pump in self._pumps:
            if pump.alive:
                pump.kill()
        self._inbox.close(_CLOSED)

    # -- internals ------------------------------------------------------------

    def _mac(self, key: bytes, seq: int, payload: Any) -> bytes:
        canonical = pack(payload) + seq.to_bytes(8, "big")
        return hmac_sha256(key, canonical)

    def _send_pump(self) -> Generator:
        while True:
            frame, wire = yield self._outbox.get()
            cost = self.costs.record_cost(wire, self.encryption)
            if cost > 0:
                yield self.sim.timeout(cost)
            try:
                self.conn.send(frame, size=wire)
                self.records_sent += 1
            except ConnectionClosed:
                self._inbox.close(_CLOSED)
                return

    def _recv_pump(self) -> Generator:
        while True:
            try:
                frame = yield self.conn.recv()
            except ConnectionClosed:
                self._inbox.close(_CLOSED)
                return
            # Trust the carried size only inside a sane range: "w" is
            # not MAC-covered, so an on-path attacker could otherwise
            # declare a petabyte record (stalling this pump — and all
            # legitimate records behind it — on a fabricated CPU
            # charge) or a negative one (free processing).  Out-of-
            # range or missing values pay the honest walk of what was
            # actually received, which an attacker cannot inflate.
            size = (frame.get("w") if isinstance(frame, dict) else None)
            if not (isinstance(size, int)
                    and 0 <= size <= _MAX_CARRIED_RECORD_SIZE):
                size = encoded_size(frame)
            cost = self.costs.record_cost(size, self.encryption)
            if cost > 0:
                yield self.sim.timeout(cost)
            if not isinstance(frame, dict) or "s" not in frame:
                self.integrity_failures += 1
                self._inbox.put_failure(SecurityError("malformed record"))
                continue
            # A forged frame can carry anything: a sequence number that
            # is no number, a payload no sender could have marshalled.
            # What cannot be MACed was not sent by the peer.
            expected_seq = self._seq_in + 1
            try:
                genuine = (frame["s"] == expected_seq
                           and frame.get("m") == self._mac(
                               self._recv_key, expected_seq, frame.get("p")))
            except MarshalError:
                genuine = False
            if not genuine:
                self.integrity_failures += 1
                self._inbox.put_failure(SecurityError(
                    "record failed integrity check (tamper or replay)"))
                continue
            self._seq_in = expected_seq
            self._inbox.put_inline(frame["p"])


# ---------------------------------------------------------------------------
# Handshake
# ---------------------------------------------------------------------------


def _derive_keys(premaster: int, client_nonce: bytes, server_nonce: bytes):
    material = sha256(premaster.to_bytes(64, "big") + client_nonce
                      + server_nonce)
    return (sha256(material + b"c2s"), sha256(material + b"s2c"))


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
        if server_hello.get("type") == "alert":
            raise HandshakeError(server_hello.get("reason", "alert"))
        server_cert = Certificate.from_wire(server_hello["cert"])
        yield sim.timeout(costs.rsa_public_op)  # verify the certificate
        if not verifier.trusts(server_cert):
            conn.close()
            raise HandshakeError("untrusted server certificate %r"
                                 % server_cert.subject)
        if expected_server is not None \
                and server_cert.subject != expected_server:
            conn.close()
            raise HandshakeError(
                "server identity mismatch: expected %r, got %r"
                % (expected_server, server_cert.subject))
        server_nonce = server_hello["nonce"]
        negotiated_encryption = bool(server_hello.get("encryption",
                                                      encryption))
        premaster = rng.getrandbits(256)
        yield sim.timeout(costs.rsa_public_op)  # RSA-encrypt premaster
        encrypted = server_cert.public_key.encrypt_int(premaster)
        exchange = {"type": "key-exchange", "premaster": encrypted}
        size = 96
        client_auth = server_hello.get("client_auth", "none")
        if client_auth == "required" and credentials is None:
            conn.close()
            raise HandshakeError("server demands a client certificate")
        if client_auth in ("required", "optional") and credentials is not None:
            transcript = sha256(client_nonce + server_nonce)
            yield sim.timeout(costs.rsa_private_op)  # sign the transcript
            exchange["cert"] = credentials.certificate.to_wire()
            exchange["signature"] = credentials.keypair.sign(transcript)
            size += credentials.certificate.wire_size()
        conn.send(exchange, size=size)
        send_key, recv_key = _derive_keys(premaster, client_nonce,
                                          server_nonce)
        try:
            finished = yield conn.recv()
        except ConnectionClosed:
            raise HandshakeError("server rejected the handshake")
        if finished.get("type") == "alert":
            raise HandshakeError(finished.get("reason", "alert"))
        expected = hmac_sha256(recv_key, client_nonce + server_nonce)
        if finished.get("type") != "finished" \
                or finished.get("mac") != expected:
            conn.close()
            raise HandshakeError("bad finished MAC from server")
        return SecureChannel(conn, send_key, recv_key, server_cert,
                             negotiated_encryption, costs)

    return wrap


def server_factory(credentials: Credentials,
                   require_client_cert: bool = False,
                   client_auth: Optional[str] = None,
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

    ``require_client_cert=True`` is shorthand for ``"required"``.
    Returns a function usable as ``channel_factory`` in the RPC layer.
    """
    if client_auth is None:
        client_auth = "required" if require_client_cert else "none"
    if client_auth not in ("none", "optional", "required"):
        raise HandshakeError("bad client_auth mode %r" % client_auth)

    def wrap(conn: Connection) -> Generator[Any, Any, SecureChannel]:
        sim = conn.sim
        rng = conn.local.network.rng
        try:
            hello = yield conn.recv()
        except ConnectionClosed:
            raise HandshakeError("client closed during handshake")
        if hello.get("type") != "hello":
            conn.send({"type": "alert", "reason": "bad hello"}, size=32)
            conn.close()
            raise HandshakeError("malformed client hello")
        client_nonce = hello["nonce"]
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
        if exchange.get("type") != "key-exchange":
            conn.close()
            raise HandshakeError("malformed key exchange")
        yield sim.timeout(costs.rsa_private_op)  # RSA-decrypt premaster
        premaster = credentials.keypair.decrypt_int(exchange["premaster"])
        client_cert: Optional[Certificate] = None
        wire = exchange.get("cert")
        if wire is None and client_auth == "required":
            conn.send({"type": "alert",
                       "reason": "client certificate required"}, size=32)
            conn.close()
            raise HandshakeError("client presented no certificate")
        if wire is not None and client_auth != "none":
            client_cert = Certificate.from_wire(wire)
            transcript = sha256(client_nonce + server_nonce)
            yield sim.timeout(2 * costs.rsa_public_op)  # cert + signature
            if not credentials.trusts(client_cert) \
                    or not client_cert.public_key.verify(
                        transcript, exchange.get("signature", 0)):
                conn.send({"type": "alert",
                           "reason": "client authentication failed"},
                          size=32)
                conn.close()
                raise HandshakeError("client authentication failed")
        recv_key, send_key = _derive_keys(premaster, client_nonce,
                                          server_nonce)
        conn.send({"type": "finished",
                   "mac": hmac_sha256(send_key, client_nonce + server_nonce)},
                  size=48)
        return SecureChannel(conn, send_key, recv_key, client_cert,
                             negotiated_encryption, costs)

    return wrap
