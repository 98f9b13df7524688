"""Session-establishment tests: key exchange, derivation, MITM."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import (
    AuthenticationError,
    DhKeyPair,
    HandshakeMessage,
    SessionHandshake,
    hkdf,
)


class TestHkdf:
    def test_deterministic(self):
        a = hkdf(b"secret", b"salt", b"info", 32)
        b = hkdf(b"secret", b"salt", b"info", 32)
        assert a == b
        assert len(a) == 32

    def test_inputs_matter(self):
        base = hkdf(b"secret", b"salt", b"info", 16)
        assert hkdf(b"other", b"salt", b"info", 16) != base
        assert hkdf(b"secret", b"other", b"info", 16) != base
        assert hkdf(b"secret", b"salt", b"other", 16) != base

    def test_expansion_lengths(self):
        long = hkdf(b"s", b"", b"i", 100)
        assert len(long) == 100
        # Prefix property of expand.
        assert hkdf(b"s", b"", b"i", 32) == long[:32]

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            hkdf(b"s", b"", b"i", 0)


class TestDhKeyPair:
    def test_shared_secret_agreement(self):
        alice = DhKeyPair.generate(b"alice")
        bob = DhKeyPair.generate(b"bob")
        assert alice.shared_secret(bob.public) == bob.shared_secret(alice.public)

    def test_different_seeds_different_keys(self):
        assert DhKeyPair.generate(b"a").public != DhKeyPair.generate(b"b").public

    def test_private_exponent_is_256_bits(self):
        assert DhKeyPair.generate(b"x").private.bit_length() == 256

    def test_degenerate_peer_rejected(self):
        keypair = DhKeyPair.generate(b"x")
        with pytest.raises(ValueError):
            keypair.shared_secret(0)
        with pytest.raises(ValueError):
            keypair.shared_secret(1)


class TestHandshake:
    def make(self):
        return SessionHandshake("driver", b"host"), SessionHandshake("gpu", b"device")

    def test_both_sides_derive_the_same_session(self):
        driver, gpu = self.make()
        a = driver.derive(gpu.message())
        b = gpu.derive(driver.message())
        assert a == b

    def test_derived_sessions_interoperate(self):
        driver, gpu = self.make()
        cpu_end, _ = driver.complete(gpu.message()).endpoints()
        _, gpu_end = gpu.complete(driver.message()).endpoints()
        message = cpu_end.encrypt_next(b"first transfer")
        assert gpu_end.decrypt_next(message) == b"first transfer"

    def test_start_ivs_are_nontrivial(self):
        driver, gpu = self.make()
        session = driver.complete(gpu.message())
        assert session.h2d_start_iv > 1
        assert session.d2h_start_iv > 1
        assert session.h2d_start_iv != session.d2h_start_iv

    def test_mitm_key_substitution_breaks_the_channel(self):
        driver, gpu = self.make()
        mallory = SessionHandshake("gpu", b"mallory")
        # The driver talks to Mallory's key; the GPU to the real one.
        cpu_end, _ = driver.complete(mallory.message()).endpoints()
        _, gpu_end = gpu.complete(driver.message()).endpoints()
        message = cpu_end.encrypt_next(b"weights")
        with pytest.raises(AuthenticationError):
            gpu_end.decrypt_next(message)

    def test_role_validation(self):
        with pytest.raises(ValueError):
            SessionHandshake("hypervisor", b"x")
        driver, _ = self.make()
        with pytest.raises(ValueError):
            driver.derive(driver.message())  # driver-driver

    def test_transcript_covers_both_nonces(self):
        driver, gpu = self.make()
        original = driver.transcript(gpu.message())
        altered = HandshakeMessage("gpu", gpu.message().public_key, b"\x00" * 16)
        assert driver.transcript(altered) != original

    @given(seed_a=st.binary(min_size=1, max_size=16), seed_b=st.binary(min_size=1, max_size=16))
    @settings(max_examples=10, deadline=None)
    def test_any_seed_pair_agrees(self, seed_a, seed_b):
        driver = SessionHandshake("driver", seed_a)
        gpu = SessionHandshake("gpu", seed_b)
        assert driver.derive(gpu.message()) == gpu.derive(driver.message())
