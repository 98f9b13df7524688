"""Pluggable AES-GCM backends behind one functional interface.

Every confidential byte in the simulation flows through
:class:`repro.crypto.session.SessionEndpoint`, which asks this module
for a GCM object via :func:`make_gcm`. Three interchangeable backends
implement the same ``encrypt / decrypt / try_decrypt`` surface:

``reference``
    The pure-Python table-driven :class:`repro.crypto.gcm.AesGcm`,
    pinned block-for-block to the NIST CAVP vectors. It is the
    conformance oracle: every other backend must be byte-identical to
    it (``tests/crypto/test_backend_equivalence.py``), and it is the
    baseline the wall-clock floor in ``tests/bench/test_wallclock.py``
    is measured against.

``numpy``
    Batched T-table AES-CTR: all counter blocks of a message are
    pushed through the AES rounds as vectorized uint32 lanes, and the
    per-key GHASH tables are built with a Gray-code recurrence (one
    XOR per entry instead of eight). Dependency-gated on numpy;
    byte-identical to the reference by construction (same tables,
    same field math).

``cryptography``
    The ``cryptography`` package's AESGCM (hardware AES-NI /
    CLMUL via OpenSSL) — fastest by ~2 orders of magnitude.
    Dependency-gated; AES-GCM is fully deterministic so its output is
    byte-identical to the reference for every (key, nonce, aad,
    plaintext).

:func:`make_gcm` without an explicit backend uses the first available
one in the order ``cryptography → numpy → reference``; tests name a
backend explicitly to pin one.

GCM objects are stateless, so :func:`make_gcm` memoizes them per
(backend, key): the two endpoints of every :class:`SecureSession`
share one instance, and a re-handshaked session (same seed, e.g.
across bench campaigns) skips key-schedule and GHASH-table setup
entirely.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from .aes import AES, _SBOX, _T0, _T1, _T2, _T3
from .gcm import AesGcm, AuthenticationError, _R

__all__ = [
    "CryptographyGcm",
    "NumpyGcm",
    "available_backends",
    "backend_available",
    "make_gcm",
    "resolve_backend",
]

#: Auto-detect order when no backend is named.
AUTO_ORDER = ("cryptography", "numpy", "reference")

#: Below this many CTR blocks the scalar T-table path beats numpy's
#: fixed per-call array overhead; batching only pays off for bulk
#: payloads.
NUMPY_MIN_BLOCKS = 8


# -- numpy backend -------------------------------------------------------

_np = None
_NP_TABLES: Optional[tuple] = None


def _numpy():
    global _np
    if _np is None:
        import numpy  # gated: backend reports unavailable without it

        _np = numpy
    return _np


def _np_tables():
    """The AES T-tables and S-box as numpy arrays (built once)."""
    global _NP_TABLES
    if _NP_TABLES is None:
        np = _numpy()
        _NP_TABLES = (
            np.array(_T0, dtype=np.uint32),
            np.array(_T1, dtype=np.uint32),
            np.array(_T2, dtype=np.uint32),
            np.array(_T3, dtype=np.uint32),
            np.frombuffer(_SBOX, dtype=np.uint8).astype(np.uint32),
        )
    return _NP_TABLES


def _ctr_blocks_numpy(aes: AES, j0: int, nblocks: int) -> bytes:
    """AES-CTR keystream for counters ``j0+1 .. j0+nblocks``, batched.

    Identical to ``nblocks`` sequential ``encrypt_block`` calls: the
    same T-tables, the same round keys, the same 32-bit counter wrap
    on the low word — just with every block in one vector lane.
    """
    np = _numpy()
    t0, t1, t2, t3, sbox = _np_tables()
    rk = aes._rk_words
    low = j0 & 0xFFFFFFFF
    c0 = np.full(nblocks, ((j0 >> 96) & 0xFFFFFFFF) ^ rk[0][0], dtype=np.uint32)
    c1 = np.full(nblocks, ((j0 >> 64) & 0xFFFFFFFF) ^ rk[0][1], dtype=np.uint32)
    c2 = np.full(nblocks, ((j0 >> 32) & 0xFFFFFFFF) ^ rk[0][2], dtype=np.uint32)
    counters = (np.arange(1, nblocks + 1, dtype=np.uint64) + np.uint64(low)) & np.uint64(0xFFFFFFFF)
    c3 = counters.astype(np.uint32) ^ np.uint32(rk[0][3])
    for round_index in range(1, aes._rounds):
        k = rk[round_index]
        n0 = t0[c0 >> 24] ^ t1[(c1 >> 16) & 0xFF] ^ t2[(c2 >> 8) & 0xFF] ^ t3[c3 & 0xFF] ^ k[0]
        n1 = t0[c1 >> 24] ^ t1[(c2 >> 16) & 0xFF] ^ t2[(c3 >> 8) & 0xFF] ^ t3[c0 & 0xFF] ^ k[1]
        n2 = t0[c2 >> 24] ^ t1[(c3 >> 16) & 0xFF] ^ t2[(c0 >> 8) & 0xFF] ^ t3[c1 & 0xFF] ^ k[2]
        n3 = t0[c3 >> 24] ^ t1[(c0 >> 16) & 0xFF] ^ t2[(c1 >> 8) & 0xFF] ^ t3[c2 & 0xFF] ^ k[3]
        c0, c1, c2, c3 = n0, n1, n2, n3
    k = rk[aes._rounds]
    o0 = ((sbox[c0 >> 24] << 24) | (sbox[(c1 >> 16) & 0xFF] << 16)
          | (sbox[(c2 >> 8) & 0xFF] << 8) | sbox[c3 & 0xFF]) ^ np.uint32(k[0])
    o1 = ((sbox[c1 >> 24] << 24) | (sbox[(c2 >> 16) & 0xFF] << 16)
          | (sbox[(c3 >> 8) & 0xFF] << 8) | sbox[c0 & 0xFF]) ^ np.uint32(k[1])
    o2 = ((sbox[c2 >> 24] << 24) | (sbox[(c3 >> 16) & 0xFF] << 16)
          | (sbox[(c0 >> 8) & 0xFF] << 8) | sbox[c1 & 0xFF]) ^ np.uint32(k[2])
    o3 = ((sbox[c3 >> 24] << 24) | (sbox[(c0 >> 16) & 0xFF] << 16)
          | (sbox[(c1 >> 8) & 0xFF] << 8) | sbox[c2 & 0xFF]) ^ np.uint32(k[3])
    out = np.empty((nblocks, 4), dtype=">u4")
    out[:, 0] = o0
    out[:, 1] = o1
    out[:, 2] = o2
    out[:, 3] = o3
    return out.tobytes()


class NumpyGcm(AesGcm):
    """AES-GCM with batched CTR lanes and Gray-code GHASH setup.

    Subclasses the reference so the tag path (GHASH chain, J0
    encryption, constant-time compare) is *shared code*, not a
    reimplementation — only the keystream batching and the per-key
    table construction differ, and both are exact.
    """

    @staticmethod
    def _build_ghash_tables(h: int):
        """Same tables as the reference, via the Gray-code recurrence.

        ``row[b] = row[b ^ lsb(b)] ^ base[bit(lsb)]`` builds each
        256-entry row with one XOR per entry instead of up to eight,
        which makes per-key setup ~6× cheaper while producing
        bit-identical tables.
        """
        hbits = [0] * 128
        v = h
        for i in range(128):
            hbits[i] = v
            if v & 1:
                v = (v >> 1) ^ _R
            else:
                v >>= 1
        tables = []
        for position in range(16):
            base = hbits[8 * position : 8 * position + 8]
            row = [0] * 256
            for b in range(1, 256):
                lsb = b & -b
                row[b] = row[b ^ lsb] ^ base[8 - lsb.bit_length()]
            tables.append(row)
        return tables

    def _ctr_stream(self, j0: int, nbytes: int) -> bytes:
        nblocks = -(-nbytes // 16)
        if nblocks < NUMPY_MIN_BLOCKS:
            return super()._ctr_stream(j0, nbytes)
        return _ctr_blocks_numpy(self._aes, j0, nblocks)[:nbytes]


# -- cryptography backend ------------------------------------------------


class CryptographyGcm:
    """AES-GCM via the ``cryptography`` package (OpenSSL AES-NI)."""

    def __init__(self, key: bytes) -> None:
        from cryptography.exceptions import InvalidTag
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        if len(key) not in (16, 24, 32):
            raise ValueError(f"invalid AES key length: {len(key)}")
        self._aead = AESGCM(bytes(key))
        self._invalid_tag = InvalidTag

    @staticmethod
    def _check_nonce(nonce: bytes) -> None:
        if len(nonce) != 12:
            raise ValueError("this implementation requires a 96-bit nonce")

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> Tuple[bytes, bytes]:
        self._check_nonce(nonce)
        blob = self._aead.encrypt(nonce, bytes(plaintext), bytes(aad))
        return blob[:-16], blob[-16:]

    def decrypt(self, nonce: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b"") -> bytes:
        self._check_nonce(nonce)
        if len(tag) != 16:
            raise AuthenticationError("GCM tag mismatch")
        try:
            return self._aead.decrypt(nonce, bytes(ciphertext) + bytes(tag), bytes(aad))
        except self._invalid_tag:
            raise AuthenticationError("GCM tag mismatch") from None

    def try_decrypt(self, nonce: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b"") -> Optional[bytes]:
        try:
            return self.decrypt(nonce, ciphertext, tag, aad)
        except AuthenticationError:
            return None


# -- registry ------------------------------------------------------------

_FACTORIES = {
    "reference": AesGcm,
    "numpy": NumpyGcm,
    "cryptography": CryptographyGcm,
}

_availability: Dict[str, bool] = {"reference": True}


def backend_available(name: str) -> bool:
    """True if ``name`` can be instantiated in this environment."""
    if name not in _FACTORIES:
        return False
    cached = _availability.get(name)
    if cached is not None:
        return cached
    try:
        if name == "numpy":
            _numpy()
        elif name == "cryptography":
            from cryptography.hazmat.primitives.ciphers.aead import AESGCM  # noqa: F401
        ok = True
    except ImportError:
        ok = False
    _availability[name] = ok
    return ok


def available_backends() -> List[str]:
    """Concrete backends usable here, in auto-detect order."""
    return [name for name in AUTO_ORDER if backend_available(name)]


def resolve_backend(name: Optional[str] = None) -> str:
    """Resolve a backend name (``None``: auto-detect) to a concrete one.

    ``None`` picks the quickest available implementation; asking for
    a gated backend whose dependency is missing raises so the caller
    can fall back explicitly rather than silently changing speed class.
    """
    if name is None:
        return available_backends()[0]
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown crypto backend {name!r}; choose from "
            f"{sorted(_FACTORIES)}"
        )
    if not backend_available(name):
        raise RuntimeError(f"crypto backend {name!r} is not available here")
    return name


_CACHE_MAX = 1024
_gcm_cache: "OrderedDict[Tuple[str, bytes], object]" = OrderedDict()


def make_gcm(key: bytes, backend: Optional[str] = None):
    """A GCM object for ``key`` under the auto-detected (or given) backend.

    Instances are stateless and memoized per (backend, key); the cache
    is bounded FIFO so long-running multi-tenant scenarios cannot grow
    it without bound.
    """
    name = resolve_backend(backend)
    cache_key = (name, bytes(key))
    gcm = _gcm_cache.get(cache_key)
    if gcm is None:
        gcm = _FACTORIES[name](key)
        _gcm_cache[cache_key] = gcm
        if len(_gcm_cache) > _CACHE_MAX:
            _gcm_cache.popitem(last=False)
    return gcm
