"""Payload-size tiering invariants (repro.crypto.tiering).

Tiering substitutes a fixed-size authenticated digest for bulk
functional plaintexts. These tests pin the contract:

* round-trip fidelity — the receiver always gets the original bytes;
* auth fidelity — every corruption GCM would catch is still caught,
  whether it lands on the tag, the ciphertext, or the carried bytes;
* accounting fidelity — exactly one IV per message per direction and
  unchanged ``nbytes_logical``, whatever the payload size;
* transparency — payloads at or below the threshold produce
  bit-identical wire bytes to plain AES-GCM.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import AuthenticationError, SecureSession
from repro.crypto.backend import make_gcm
from repro.crypto.gcm import iv_from_counter
from repro.crypto.tiering import (
    DIGEST_BYTES,
    TIER_THRESHOLD,
    expand,
    payload_digest,
    shrink,
)

KEY = bytes(range(16))

small = st.binary(min_size=0, max_size=TIER_THRESHOLD)
bulk = st.binary(min_size=TIER_THRESHOLD + 1, max_size=2 * TIER_THRESHOLD)
anysize = st.one_of(small, bulk)


def endpoints():
    return SecureSession(key=KEY).endpoints()


class TestShrinkExpand:
    def test_small_payload_passes_through(self):
        assert shrink(b"x" * TIER_THRESHOLD) == (b"x" * TIER_THRESHOLD, None)

    def test_bulk_payload_becomes_fixed_size_digest(self):
        payload = bytes(range(256)) * 8 + b"!"
        functional, carried = shrink(payload)
        assert carried == payload
        assert functional == payload_digest(payload)
        assert len(functional) == DIGEST_BYTES

    def test_digest_binds_length_and_content(self):
        assert payload_digest(b"a" * 100) != payload_digest(b"a" * 101)
        assert payload_digest(b"a" * 100) != payload_digest(b"b" * 100)

    def test_expand_rejects_mismatched_carry(self):
        functional, carried = shrink(bytes(TIER_THRESHOLD + 200))
        with pytest.raises(AuthenticationError):
            expand(functional, carried + b"\x00")
        with pytest.raises(AuthenticationError):
            expand(functional, carried[:-1])


class TestSessionRoundTrip:
    @given(payload=anysize)
    @settings(max_examples=50, deadline=None)
    def test_round_trip_any_size(self, payload):
        cpu, gpu = endpoints()
        assert gpu.decrypt_next(cpu.encrypt_next(payload)) == payload

    @given(payload=bulk)
    @settings(max_examples=30, deadline=None)
    def test_bulk_ciphertext_is_fixed_size(self, payload):
        cpu, _ = endpoints()
        message = cpu.encrypt_next(payload, nbytes_logical=1 << 20)
        assert len(message.ciphertext) == DIGEST_BYTES
        assert message.carried == payload
        # Timing inputs are untouched by tiering.
        assert message.nbytes_logical == 1 << 20

    @given(payload=bulk, byte_index=st.integers(0, 15))
    @settings(max_examples=30, deadline=None)
    def test_tampered_tag_still_fails_auth(self, payload, byte_index):
        cpu, gpu = endpoints()
        message = cpu.encrypt_next(payload)
        bad = bytearray(message.tag)
        bad[byte_index] ^= 0x01
        tampered = type(message)(
            message.ciphertext, bytes(bad), message.sender_iv,
            message.nbytes_logical, message.carried,
        )
        with pytest.raises(AuthenticationError):
            gpu.decrypt_next(tampered)

    @given(payload=bulk, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_tampered_carried_bytes_fail_auth(self, payload, data):
        # The bulk bytes ride outside the cipher; flipping any of them
        # must still surface as an AuthenticationError at the receiver.
        cpu, gpu = endpoints()
        message = cpu.encrypt_next(payload)
        index = data.draw(st.integers(0, len(payload) - 1))
        bad = bytearray(message.carried)
        bad[index] ^= 0x01
        tampered = type(message)(
            message.ciphertext, message.tag, message.sender_iv,
            message.nbytes_logical, bytes(bad),
        )
        with pytest.raises(AuthenticationError):
            gpu.decrypt_next(tampered)

    @given(payloads=st.lists(anysize, min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_one_iv_per_message_regardless_of_size(self, payloads):
        cpu, gpu = endpoints()
        first_tx = cpu.tx_iv.peek()
        for payload in payloads:
            gpu.decrypt_next(cpu.encrypt_next(payload))
        assert cpu.tx_iv.peek() == first_tx + len(payloads)
        assert gpu.rx_iv.peek() == first_tx + len(payloads)

    @given(payload=small)
    @settings(max_examples=30, deadline=None)
    def test_below_threshold_wire_bytes_identical_to_untiered(self, payload):
        cpu, _ = endpoints()
        tiered = cpu.encrypt_next(payload)
        ciphertext, tag = make_gcm(KEY, "reference").encrypt(
            iv_from_counter(tiered.sender_iv), payload
        )
        assert tiered.ciphertext == ciphertext
        assert tiered.tag == tag
        assert tiered.carried is None

    @given(payload=bulk)
    @settings(max_examples=20, deadline=None)
    def test_desynchronized_counters_still_fail(self, payload):
        cpu, gpu = endpoints()
        cpu.commit_tx_iv()  # cpu burns an IV the gpu never sees
        message = cpu.encrypt_next(payload)
        with pytest.raises(AuthenticationError):
            gpu.decrypt_next(message)
