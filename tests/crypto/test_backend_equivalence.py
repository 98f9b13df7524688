"""Differential harness: every AES-GCM backend ≡ the reference.

:func:`make_gcm` auto-detects a batched or hardware implementation in
place of the pure-Python :class:`AesGcm` (:mod:`repro.crypto.backend`),
which stays the CAVP oracle and the fallback. These tests
are the lockdown: each available backend must

* reproduce the full NIST CAVP known-answer set bit-exactly
  (ciphertext, tag, decrypt round-trip);
* agree byte-for-byte with the reference on randomized keys, IVs,
  AADs and payloads — including empty and non-block-aligned ones;
* reject exactly the corrupted inputs the reference rejects.

Backends whose dependency is absent in this environment are skipped
by name, never silently.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import AesGcm, AuthenticationError, TAG_SIZE
from repro.crypto.backend import (
    AUTO_ORDER,
    NUMPY_MIN_BLOCKS,
    available_backends,
    backend_available,
    make_gcm,
    resolve_backend,
)
from repro.crypto.gcm import iv_from_counter

from .test_gcm_vectors import VECTORS, _unpack

_IDS = [v[0] for v in VECTORS]

#: Every non-reference backend, skipped (visibly) when unavailable.
BACKENDS = [
    pytest.param(
        name,
        marks=pytest.mark.skipif(
            not backend_available(name),
            reason=f"{name} dependency not installed",
        ),
    )
    for name in AUTO_ORDER
    if name != "reference"
]

keys = st.sampled_from([16, 24, 32]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)
)
nonces = st.binary(min_size=12, max_size=12)
# Straddles the numpy batching cutoff and block alignment: empty,
# sub-block, exact blocks, one-past, and multi-kilobyte payloads.
payloads = st.one_of(
    st.binary(min_size=0, max_size=64),
    st.sampled_from([0, 15, 16, 17, 16 * NUMPY_MIN_BLOCKS - 1,
                     16 * NUMPY_MIN_BLOCKS, 16 * NUMPY_MIN_BLOCKS + 1,
                     4096]).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)
    ),
)
aads = st.binary(min_size=0, max_size=40)


class TestVectorConformance:
    """The CAVP known-answer set, per backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("vector", VECTORS, ids=_IDS)
    def test_encrypt_matches_vector(self, backend, vector):
        key, iv, pt, aad, ct, tag = _unpack(vector)
        got_ct, got_tag = make_gcm(key, backend).encrypt(iv, pt, aad=aad)
        assert got_ct == ct
        assert got_tag == tag
        assert len(got_tag) == TAG_SIZE

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("vector", VECTORS, ids=_IDS)
    def test_decrypt_matches_vector(self, backend, vector):
        key, iv, pt, aad, ct, tag = _unpack(vector)
        assert make_gcm(key, backend).decrypt(iv, ct, tag, aad=aad) == pt

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("vector", VECTORS, ids=_IDS)
    def test_every_flipped_tag_bit_rejected(self, backend, vector):
        key, iv, pt, aad, ct, tag = _unpack(vector)
        gcm = make_gcm(key, backend)
        for byte_index in range(len(tag)):
            for bit in (0x01, 0x80):
                bad = bytearray(tag)
                bad[byte_index] ^= bit
                with pytest.raises(AuthenticationError):
                    gcm.decrypt(iv, ct, bytes(bad), aad=aad)
                assert gcm.try_decrypt(iv, ct, bytes(bad), aad=aad) is None


class TestDifferentialProperties:
    """Randomized byte-identity against the reference implementation."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(key=keys, nonce=nonces, plaintext=payloads, aad=aads)
    @settings(max_examples=60, deadline=None)
    def test_encrypt_byte_identical(self, backend, key, nonce, plaintext, aad):
        ref_ct, ref_tag = AesGcm(key).encrypt(nonce, plaintext, aad=aad)
        got_ct, got_tag = make_gcm(key, backend).encrypt(nonce, plaintext, aad=aad)
        assert got_ct == ref_ct
        assert got_tag == ref_tag

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(key=keys, nonce=nonces, plaintext=payloads, aad=aads)
    @settings(max_examples=60, deadline=None)
    def test_decrypt_round_trips_reference_output(
        self, backend, key, nonce, plaintext, aad
    ):
        ct, tag = AesGcm(key).encrypt(nonce, plaintext, aad=aad)
        assert make_gcm(key, backend).decrypt(nonce, ct, tag, aad=aad) == plaintext

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(
        key=keys, nonce=nonces, plaintext=payloads, aad=aads,
        byte_index=st.integers(0, 15), bit=st.integers(0, 7),
    )
    @settings(max_examples=40, deadline=None)
    def test_backends_reject_the_same_corrupted_tags(
        self, backend, key, nonce, plaintext, aad, byte_index, bit
    ):
        ct, tag = AesGcm(key).encrypt(nonce, plaintext, aad=aad)
        bad = bytearray(tag)
        bad[byte_index] ^= 1 << bit
        bad = bytes(bad)
        with pytest.raises(AuthenticationError):
            AesGcm(key).decrypt(nonce, ct, bad, aad=aad)
        with pytest.raises(AuthenticationError):
            make_gcm(key, backend).decrypt(nonce, ct, bad, aad=aad)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(key=keys, counter=st.integers(1, (1 << 96) - 1), plaintext=payloads)
    @settings(max_examples=30, deadline=None)
    def test_channel_nonces_agree(self, backend, key, counter, plaintext):
        # The nonces the PipeLLM channel actually derives.
        nonce = iv_from_counter(counter)
        assert (
            make_gcm(key, backend).encrypt(nonce, plaintext)
            == AesGcm(key).encrypt(nonce, plaintext)
        )


class TestRegistry:
    def test_reference_always_available(self):
        assert backend_available("reference")
        assert "reference" in available_backends()

    def test_default_resolves_to_first_available(self):
        assert resolve_backend(None) == available_backends()[0]

    def test_unknown_backend_rejected(self):
        for name in ("enigma", "fast"):
            with pytest.raises(ValueError):
                resolve_backend(name)

    def test_make_gcm_memoizes_per_backend_and_key(self):
        key = bytes(16)
        assert make_gcm(key, "reference") is make_gcm(key, "reference")
        assert make_gcm(key, "reference") is not make_gcm(bytes(range(16)), "reference")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bad_key_and_nonce_lengths_rejected(self, backend):
        with pytest.raises(ValueError):
            make_gcm(b"short", backend)
        with pytest.raises(ValueError):
            make_gcm(bytes(16), backend).encrypt(b"8bytes..", b"x")
