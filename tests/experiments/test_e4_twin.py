"""E4's back-of-envelope twin: all twelve timed cells predicted in
closed form from the link parameters and the TLS flights.

E4 opens one connection across WORLD (client at ``r0/c0/m0/s0``,
server at ``r1/c0/m0/s0``) per row and times three things on it: the
connect plus the channel handshake plus one empty round trip, then an
8 KiB and a 512 KiB message each answered by a small ack.  A message of
b bytes crosses in one flight,

    flight(b) = latency(WORLD) + (b + framing) / bandwidth(WORLD),

and the connect is one round trip of framing alone, 2 × flight(0).
A TLS row adds the handshake's four flights at the sizes
:mod:`repro.security.tls` charges them (hello 48 bytes, server-hello
64 plus the server's certificate, key exchange 96 plus the client's
certificate in two-way mode, finished 48) and the RSA work each end
does between them: the client verifies the certificate and encrypts
the premaster (two public-key operations) and, in two-way mode, signs
the transcript (a private one); the server decrypts the premaster (a
private one) and, in two-way mode, verifies the client's certificate
and signature (two public ones).  Over TLS a message of b bytes is a
record of w = b + MAC + record header bytes, and each end spends
``record_cost(w)`` on it before it is handed over, so a record costs
flight(w) + 2 × record_cost(w).

E4 runs without jitter and every flight waits for the one before it,
so a right prediction agrees to float rounding.  Nothing the twin
models is missing from it: the connect's SYN and SYN-ACK, the four
handshake flights, the RSA operations and the record costs at both
ends account for every cell.
"""

import random

from repro.experiments import e4_security as e4
from repro.security import tls
from repro.security.acl import Role, role_attribute
from repro.security.certs import CertificateAuthority, Credentials
from repro.sim.network import LinkParameters
from repro.sim.serde import HEADER_OVERHEAD, encoded_size
from repro.sim.topology import Level
from repro.workloads.packages import synthetic_file

#: Relative, named before the first comparison.  E4 has no jitter and
#: no queueing, so a right prediction agrees to float rounding, well
#: inside 0.1 %.  The bound is tighter than that: a planted +10 % on
#: one private-key operation moves the one-way handshake by 0.07 %.
TOLERANCE = 1e-6
#: Each row: (label, TLS, two-way authentication, encryption).
ROWS = (("plain TCP (v1, June 2000)", False, False, False),
        ("TLS one-way auth", True, False, True),
        ("TLS two-way auth", True, True, True),
        ("TLS two-way, integrity only", True, True, False))
CELLS = ("handshake", "small", "large")
#: E4's default seed, which keys the certificates it issues.
SEED = 5


def _certificate_bytes():
    """What the server's and the client's certificates are charged on
    the wire, issued as E4 issues them."""
    rng = random.Random(SEED)
    ca = CertificateAuthority("gdn-ca", rng)
    return tuple(Credentials.issue_for(name, ca, rng,
                                       role_attribute(Role.GDN_HOST))
                 .certificate.wire_size() for name in ("server", "client"))


def predict(params: LinkParameters) -> dict:
    """{(row label, cell): seconds} for all twelve cells."""
    latency = params.latency[Level.WORLD]
    bandwidth = params.bandwidth[Level.WORLD]
    server_cert, client_cert = _certificate_bytes()

    def flight(size):
        return latency + (size + HEADER_OVERHEAD) / bandwidth

    cells = {}
    for label, secure, two_way, encryption in ROWS:
        def round_trip(request):
            total = 0.0
            for payload in (request, {"ack": request["n"]}):
                size = encoded_size(payload)
                if secure:
                    size += tls._MAC_SIZE + tls._RECORD_OVERHEAD
                    total += 2 * tls.record_cost(size, encryption)
                total += flight(size)
            return total

        handshake = 2 * flight(0)
        if secure:
            key_exchange = 96 + (client_cert if two_way else 0)
            handshake += (flight(48) + flight(64 + server_cert)
                          + 2 * tls.RSA_PUBLIC_OP
                          + (tls.RSA_PRIVATE_OP if two_way else 0.0)
                          + flight(key_exchange)
                          + tls.RSA_PRIVATE_OP
                          + (2 * tls.RSA_PUBLIC_OP if two_way else 0.0)
                          + flight(48))
        cells[label, "handshake"] = handshake + round_trip(
            {"n": 0, "data": b""})
        for cell, size in (("small", e4.SMALL), ("large", e4.LARGE)):
            cells[label, cell] = round_trip(
                {"n": 1, "data": synthetic_file(cell, size)})
    return cells


def _misses(predicted: dict, result: dict) -> set:
    """The (row, cell) pairs off their prediction by more than
    TOLERANCE."""
    return {(row["label"], cell) for row in result["rows"] for cell in CELLS
            if abs(row[cell] - predicted[row["label"], cell])
            > TOLERANCE * predicted[row["label"], cell]}


def test_e4_matches_its_twin():
    predicted = predict(LinkParameters())
    result = e4.run_security_overhead_experiment(SEED)
    assert [row["label"] for row in result["rows"]] == \
        [label for label, *_flags in ROWS]
    assert _misses(predicted, result) == set()


def test_a_planted_private_key_cost_fails_the_tls_handshakes_only(
        monkeypatch):
    predicted = predict(LinkParameters())
    monkeypatch.setattr(tls, "RSA_PRIVATE_OP", tls.RSA_PRIVATE_OP * 1.1)
    result = e4.run_security_overhead_experiment(SEED)
    assert _misses(predicted, result) == {
        (label, "handshake") for label, secure, *_flags in ROWS if secure}
