"""SPDM-style secure-session establishment (CVM driver ↔ GPU).

The paper assumes the CC channel simply exists: "the initial IV is
synchronized during system initialization" (§2.2). On real hardware
that initialization is an SPDM exchange between the confidential VM's
driver and the GPU: the two sides run an authenticated key exchange,
derive the AES-GCM session key and the starting IVs from the shared
secret, and bind everything to the handshake transcript.

This module implements that bring-up concretely enough that its
failure modes are observable:

* finite-field Diffie–Hellman (the RFC 3526 2048-bit MODP group) for
  the shared secret;
* HKDF-SHA256 for key and IV derivation, salted with both nonces and
  bound to the transcript hash;
* transcript binding — a man-in-the-middle who substitutes either
  public key produces endpoints whose very first transfer fails GCM
  authentication.

Device *authentication* (proving the responder is a genuine GPU, not
just any DH peer) is layered on top by :mod:`repro.crypto.attestation`.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Dict, Tuple

from .session import SecureSession

__all__ = [
    "DhKeyPair",
    "HandshakeMessage",
    "SessionHandshake",
    "derive_link_session",
    "hkdf",
]

# RFC 3526, group 14 (2048-bit MODP).
_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
_G = 2


def hkdf(secret: bytes, salt: bytes, info: bytes, length: int) -> bytes:
    """HKDF-SHA256 (RFC 5869) extract-and-expand."""
    if length <= 0 or length > 255 * 32:
        raise ValueError("invalid HKDF output length")
    prk = hmac.new(salt or b"\x00" * 32, secret, hashlib.sha256).digest()
    blocks = []
    previous = b""
    counter = 1
    while sum(len(b) for b in blocks) < length:
        previous = hmac.new(
            prk, previous + info + bytes([counter]), hashlib.sha256
        ).digest()
        blocks.append(previous)
        counter += 1
    return b"".join(blocks)[:length]


def derive_link_session(root_key: bytes, link: str) -> SecureSession:
    """Derive one inter-GPU link's :class:`SecureSession` from a root key.

    Multi-GPU machines need an independent AES-GCM key and IV pair per
    *directed link leg* (GPU→bounce-buffer and bounce-buffer→GPU are
    separate channels with separate counters). All of them chain off
    the machine's session key via HKDF with a per-link info string, so

    * two legs (or two links) never share a (key, IV) space, and
    * both ends of the handshake derive identical link keys without
      any additional message exchange — exactly how SPDM secondary
      sessions are keyed off the primary session secret.

    ``link`` is a stable label such as ``"link:0->1:up"``.
    """
    okm = hkdf(
        root_key,
        salt=b"pipellm-interconnect",
        info=b"cc-link:" + link.encode(),
        length=16 + 8,
    )
    key = okm[:16]
    h2d_iv = 1 + int.from_bytes(okm[16:20], "big") % (1 << 32)
    d2h_iv = 1 + int.from_bytes(okm[20:24], "big") % (1 << 32)
    return SecureSession(key, h2d_start_iv=h2d_iv, d2h_start_iv=d2h_iv)


# Key generation and shared-secret computation are pure functions of
# their inputs, and deterministic seeding means scenarios re-derive the
# same handful of key pairs over and over (every bench campaign re-runs
# the same seeded bring-up). Memoizing the modexps is therefore
# behaviour-preserving caching, not an approximation. Bounded so a
# pathological scenario cannot grow them without limit.
_CACHE_MAX = 4096
_keypair_cache: Dict[bytes, "DhKeyPair"] = {}
_secret_cache: Dict[Tuple[int, int], bytes] = {}


@dataclass(frozen=True)
class DhKeyPair:
    """A Diffie–Hellman key pair over the MODP group."""

    private: int
    public: int

    @classmethod
    def generate(cls, seed: bytes) -> "DhKeyPair":
        """Deterministic key generation from a seed (the simulation has
        no OS entropy source; callers pass per-endpoint seeds).

        The private exponent is 256 bits rather than full group width —
        standard short-exponent DH (RFC 7919 §5.2: the exponent only
        needs twice the target security level), which cuts each modexp
        ~8× against a 2048-bit exponent.
        """
        cache_key = bytes(seed)
        cached = _keypair_cache.get(cache_key)
        if cached is not None:
            return cached
        digest = hashlib.sha256(b"dh-private:" + seed).digest()
        # Top bit forced so the exponent is always exactly 256 bits.
        private = int.from_bytes(digest, "big") | (1 << 255)
        pair = cls(private, pow(_G, private, _P))
        if len(_keypair_cache) < _CACHE_MAX:
            _keypair_cache[cache_key] = pair
        return pair

    def shared_secret(self, peer_public: int) -> bytes:
        if not 2 <= peer_public <= _P - 2:
            raise ValueError("peer public key out of range")
        cache_key = (self.private, peer_public)
        cached = _secret_cache.get(cache_key)
        if cached is not None:
            return cached
        secret = pow(peer_public, self.private, _P)
        result = secret.to_bytes((_P.bit_length() + 7) // 8, "big")
        if len(_secret_cache) < _CACHE_MAX:
            _secret_cache[cache_key] = result
        return result


@dataclass(frozen=True)
class HandshakeMessage:
    """One side's key-exchange contribution (what crosses the bus)."""

    role: str           # "driver" or "gpu"
    public_key: int
    nonce: bytes


class SessionHandshake:
    """Two-message key exchange producing a :class:`SecureSession`.

    Usage::

        driver = SessionHandshake("driver", seed=b"host-seed")
        gpu = SessionHandshake("gpu", seed=b"device-seed")
        driver_session = driver.complete(gpu.message())
        gpu_session = gpu.complete(driver.message())
        # Both sides now derive the SAME key and starting IVs.
    """

    _KEY_BYTES = 16
    _IV_SPACE = 1 << 32  # Starting IVs land in a 32-bit window.

    def __init__(self, role: str, seed: bytes) -> None:
        if role not in ("driver", "gpu"):
            raise ValueError("role must be 'driver' or 'gpu'")
        self.role = role
        self.keypair = DhKeyPair.generate(seed + role.encode())
        self.nonce = hashlib.sha256(b"nonce:" + seed + role.encode()).digest()[:16]

    def message(self) -> HandshakeMessage:
        """The contribution this side sends over the (untrusted) bus."""
        return HandshakeMessage(self.role, self.keypair.public, self.nonce)

    def transcript(self, peer: HandshakeMessage) -> bytes:
        """Order-independent transcript hash binding both contributions."""
        driver, gpu = (self.message(), peer) if self.role == "driver" else (peer, self.message())
        material = (
            b"pipellm-cc-v1"
            + driver.public_key.to_bytes(256, "big")
            + driver.nonce
            + gpu.public_key.to_bytes(256, "big")
            + gpu.nonce
        )
        return hashlib.sha256(material).digest()

    def derive(self, peer: HandshakeMessage):
        """Derive (key, h2d_start_iv, d2h_start_iv) from the exchange."""
        if peer.role == self.role:
            raise ValueError("handshake requires one driver and one gpu")
        shared = self.keypair.shared_secret(peer.public_key)
        transcript = self.transcript(peer)
        okm = hkdf(shared, salt=transcript, info=b"cc-session", length=self._KEY_BYTES + 8)
        key = okm[: self._KEY_BYTES]
        h2d_iv = 1 + int.from_bytes(okm[self._KEY_BYTES : self._KEY_BYTES + 4], "big") % self._IV_SPACE
        d2h_iv = 1 + int.from_bytes(okm[self._KEY_BYTES + 4 :], "big") % self._IV_SPACE
        return key, h2d_iv, d2h_iv

    def complete(self, peer: HandshakeMessage) -> SecureSession:
        """Finish the handshake: a session with synchronized IVs."""
        key, h2d_iv, d2h_iv = self.derive(peer)
        return SecureSession(key, h2d_start_iv=h2d_iv, d2h_start_iv=d2h_iv)
