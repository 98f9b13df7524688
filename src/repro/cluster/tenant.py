"""Per-tenant attested sessions between clients and replicas.

Every tenant that talks to a replica first runs the same SPDM-style
bring-up the CVM driver runs against the GPU: a two-message key
exchange (:class:`repro.crypto.handshake.SessionHandshake`), device
attestation of the replica over the handshake transcript, and HKDF
derivation of an AES-GCM key plus two starting IVs. The resulting
:class:`TenantChannel` gives the tenant its own IV streams end to end
— request ciphertext rides the tenant→replica stream, response
ciphertext the replica→tenant stream — completely independent of the
replica-internal CVM↔GPU channel.

Failover correctness hinges on two invariants this module makes
checkable:

* **No IV reuse per key** — every encryption on every channel reports
  its (key, stream, IV) triple to a :class:`ClusterIvAudit`, which
  raises :class:`IvReuseError` the moment a stream is non-monotone.
  Re-handshakes after a crash derive *fresh keys*, so pre- and
  post-crash streams can never collide.
* **Replay rejection** — a ciphertext captured before a crash fails
  GCM authentication on the post-failover session (different key),
  which tests assert directly.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Tuple

from ..crypto import (
    GOLDEN_MEASUREMENTS,
    EncryptedMessage,
    GpuDevice,
    RootOfTrust,
    SessionHandshake,
)

__all__ = ["ClusterIvAudit", "IvReuseError", "TenantChannel"]


class IvReuseError(AssertionError):
    """An IV stream moved backwards or repeated under one key."""


class ClusterIvAudit:
    """Cluster-wide ledger asserting per-key IV monotonicity.

    Keys are fingerprinted; each (key, stream) lane must consume
    strictly increasing counters. The audit spans every tenant channel
    the gateway ever creates — including pre- and post-failover
    incarnations — so a key accidentally reused across a crash would
    trip it immediately.
    """

    def __init__(self) -> None:
        #: (key_fingerprint, stream) -> last IV consumed.
        self._last: Dict[Tuple[str, str], int] = {}
        self._fingerprints: Dict[bytes, str] = {}
        self.observed = 0

    @staticmethod
    def fingerprint(key: bytes) -> str:
        return hashlib.sha256(key).hexdigest()[:16]

    def observe(self, key: bytes, stream: str, iv: int) -> None:
        fingerprint = self._fingerprints.get(key)
        if fingerprint is None:
            fingerprint = self._fingerprints[key] = self.fingerprint(key)
        lane = (fingerprint, stream)
        last = self._last.get(lane)
        if last is not None and iv <= last:
            raise IvReuseError(
                f"IV {iv} on {lane} not strictly greater than {last}"
            )
        self._last[lane] = iv
        self.observed += 1

    def keys_seen(self) -> int:
        """Distinct (key, stream) lanes observed so far."""
        return len(self._last)

    def lanes(self) -> Dict[Tuple[str, str], int]:
        """Snapshot of every lane's last consumed IV.

        Interconnect links register four lanes per directed link (the
        copy-engine and host ends of the up and down sessions); the
        stream names carry the link label, so a test can assert exactly
        which fabric lanes moved and that each moved monotonically.
        """
        return dict(self._last)


class TenantChannel:
    """One attested secure session between a tenant and one replica.

    The tenant plays the handshake's "driver" role, the replica the
    "gpu" role; the replica then attests its measurements over the
    transcript against the golden values before any data flows. Seeds
    mix tenant id, replica id and the replica's incarnation epoch, so
    every (tenant, replica, epoch) triple derives an independent key.
    """

    def __init__(
        self,
        tenant: str,
        replica_id: int,
        epoch: int,
        audit: Optional[ClusterIvAudit] = None,
        root: Optional[RootOfTrust] = None,
    ) -> None:
        self.tenant = tenant
        self.replica_id = replica_id
        self.epoch = epoch
        self.audit = audit

        suffix = f"{tenant}.r{replica_id}.e{epoch}".encode()
        tenant_hs = SessionHandshake("driver", seed=b"tenant:" + suffix)
        replica_hs = SessionHandshake("gpu", seed=b"replica:" + suffix)

        # The tenant verifies it reached a genuine, unmodified replica
        # before deriving traffic keys (attestation over the transcript).
        root = root or RootOfTrust()
        device_id = f"replica-{replica_id}"
        device = GpuDevice(device_id, root.provision(device_id))
        report = device.attest(tenant_hs.transcript(replica_hs.message()))
        root.verify(report, expected_measurements=GOLDEN_MEASUREMENTS)

        session = tenant_hs.complete(replica_hs.message())
        self.key = session.key
        self.tenant_endpoint, self.replica_endpoint = session.endpoints()

    # -- tenant → replica (requests) ------------------------------------

    def send_request(self, payload: bytes) -> EncryptedMessage:
        """Tenant-side encryption of one request under its next TX IV."""
        message = self.tenant_endpoint.encrypt_next(payload)
        if self.audit is not None:
            self.audit.observe(self.key, "tenant->replica", message.sender_iv)
        return message

    def recv_request(self, message: EncryptedMessage) -> bytes:
        """Replica-side decrypt; AuthenticationError on any desync/replay."""
        return self.replica_endpoint.decrypt_next(message)

    # -- replica → tenant (responses) -----------------------------------

    def send_response(self, payload: bytes) -> EncryptedMessage:
        """Replica-side encryption of one response."""
        message = self.replica_endpoint.encrypt_next(payload)
        if self.audit is not None:
            self.audit.observe(self.key, "replica->tenant", message.sender_iv)
        return message

    def recv_response(self, message: EncryptedMessage) -> bytes:
        """Tenant-side decrypt of a response."""
        return self.tenant_endpoint.decrypt_next(message)

    def __repr__(self) -> str:
        return (
            f"TenantChannel({self.tenant}→replica-{self.replica_id}"
            f".e{self.epoch}, key={ClusterIvAudit.fingerprint(self.key)})"
        )
