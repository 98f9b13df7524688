"""Payload-size tiering: bulk transfers encrypt a digest, not the body.

The simulation separates *timing* (charged from logical transfer
sizes) from *function* (real AES-GCM over small stand-in payloads).
Most payloads are a few dozen bytes, but bulk scenarios — large
collectives, Blackwell-scale activations — can push multi-kilobyte
functional payloads through the pure-crypto layer, where they buy no
additional semantic coverage: one IV is consumed per message whether
the cipher touched 64 bytes or 64 kilobytes.

Tiering caps that cost. Above :data:`TIER_THRESHOLD` bytes, the
encryption path substitutes a fixed-size *authenticated digest* of
the payload as the functional plaintext; the original bytes ride
alongside the ciphertext the same way ciphertext rides through
untrusted shared memory. The receiving endpoint verifies the GCM tag over the digest,
recomputes the digest of the carried bytes, and only then releases
the payload — so every corruption that GCM would have caught is still
caught:

* flipped tag or digest-ciphertext bit → GCM tag mismatch, exactly
  as before;
* flipped carried-payload bit → digest mismatch, surfaced as the same
  :class:`AuthenticationError`.

What tiering deliberately does **not** change: stage timings (driven
by ``nbytes_logical``), per-chunk IV accounting (still one IV per
message per direction), audit verdicts, and any payload at or below
the threshold — those keep their exact pre-tiering wire bytes.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Optional, Tuple

from .gcm import AuthenticationError

__all__ = ["DIGEST_BYTES", "TIER_THRESHOLD", "payload_digest", "shrink", "expand"]

#: Functional plaintexts longer than this many bytes are tiered. Chosen
#: above every functional payload the standing bench suite produces, so
#: the suite's wire bytes are those of plain AES-GCM; only genuinely
#: bulk payloads (big collectives, Blackwell-scale transfers) are tiered.
TIER_THRESHOLD = 1024

_MAGIC = b"tier1"

#: Size of a tiered functional plaintext: magic + 64-bit length +
#: SHA-256 digest.
DIGEST_BYTES = len(_MAGIC) + 8 + 32


def payload_digest(payload: bytes) -> bytes:
    """The fixed-size functional stand-in for a bulk payload."""
    return _MAGIC + struct.pack(">Q", len(payload)) + hashlib.sha256(payload).digest()


def shrink(plaintext: bytes) -> Tuple[bytes, Optional[bytes]]:
    """``(functional_plaintext, carried)`` for the encryption path.

    Payloads at or below :data:`TIER_THRESHOLD` pass through untouched
    (``carried is None``) and produce bit-identical wire bytes to
    plain AES-GCM.
    """
    if len(plaintext) > TIER_THRESHOLD:
        return payload_digest(plaintext), bytes(plaintext)
    return plaintext, None


def expand(functional_plaintext: bytes, carried: Optional[bytes]) -> bytes:
    """Reverse of :func:`shrink` after a successful GCM decrypt.

    Raises :class:`AuthenticationError` when the carried bytes do not
    match the authenticated digest — the tiered analogue of a
    tampered-ciphertext tag failure.
    """
    if carried is None:
        return functional_plaintext
    if functional_plaintext != payload_digest(carried):
        raise AuthenticationError("tiered payload digest mismatch")
    return carried
