"""Secure-session tests: the IV-synchronization contract of §2.2.

These tests pin the exact behaviour PipeLLM's design revolves around:
in-order delivery authenticates; any reordering, skip, or replay is a
GCM failure.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.crypto import AuthenticationError, SecureSession


@pytest.fixture
def endpoints():
    return SecureSession(key=bytes(range(16))).endpoints()


class TestHappyPath:
    def test_h2d_roundtrip(self, endpoints):
        cpu, gpu = endpoints
        message = cpu.encrypt_next(b"layer-weights")
        assert gpu.decrypt_next(message) == b"layer-weights"

    def test_d2h_roundtrip(self, endpoints):
        cpu, gpu = endpoints
        message = gpu.encrypt_next(b"kv-cache")
        assert cpu.decrypt_next(message) == b"kv-cache"

    def test_many_in_order(self, endpoints):
        cpu, gpu = endpoints
        for i in range(50):
            payload = f"chunk-{i}".encode()
            assert gpu.decrypt_next(cpu.encrypt_next(payload)) == payload

    def test_directions_independent(self, endpoints):
        cpu, gpu = endpoints
        up = cpu.encrypt_next(b"up")
        down = gpu.encrypt_next(b"down")
        # Interleaved directions use separate counters.
        assert cpu.decrypt_next(down) == b"down"
        assert gpu.decrypt_next(up) == b"up"

    def test_logical_size_is_carried(self, endpoints):
        cpu, _ = endpoints
        message = cpu.encrypt_next(b"tiny", nbytes_logical=1 << 30)
        assert message.nbytes_logical == 1 << 30


class TestDesynchronization:
    def test_out_of_order_delivery_fails(self, endpoints):
        cpu, gpu = endpoints
        first = cpu.encrypt_next(b"first")
        second = cpu.encrypt_next(b"second")
        with pytest.raises(AuthenticationError):
            gpu.decrypt_next(second)
        # The failed attempt consumed the receiver IV: even the right
        # message can no longer authenticate — the channel is wedged.
        with pytest.raises(AuthenticationError):
            gpu.decrypt_next(first)

    def test_replay_fails(self, endpoints):
        cpu, gpu = endpoints
        message = cpu.encrypt_next(b"secret")
        assert gpu.decrypt_next(message) == b"secret"
        with pytest.raises(AuthenticationError):
            gpu.decrypt_next(message)

    def test_cross_session_fails(self):
        cpu_a, _ = SecureSession(key=bytes(16)).endpoints()
        _, gpu_b = SecureSession(key=bytes(range(16))).endpoints()
        message = cpu_a.encrypt_next(b"x")
        with pytest.raises(AuthenticationError):
            gpu_b.decrypt_next(message)


class TestSpeculativeEncryption:
    def test_encrypt_with_iv_does_not_consume(self, endpoints):
        cpu, _ = endpoints
        before = cpu.tx_iv.current
        cpu.encrypt_with_iv(b"speculative", counter=before + 5)
        assert cpu.tx_iv.current == before

    def test_correctly_predicted_iv_authenticates(self, endpoints):
        cpu, gpu = endpoints
        predicted = cpu.tx_iv.peek()
        message = cpu.encrypt_with_iv(b"predicted", predicted)
        cpu.commit_tx_iv()
        assert gpu.decrypt_next(message) == b"predicted"

    def test_mispredicted_iv_fails(self, endpoints):
        cpu, gpu = endpoints
        message = cpu.encrypt_with_iv(b"too-early", cpu.tx_iv.peek(ahead=3))
        cpu.commit_tx_iv()
        with pytest.raises(AuthenticationError):
            gpu.decrypt_next(message)

    def test_nop_padding_heals_future_iv(self, endpoints):
        """The §5.3 mechanism end to end: pad NOPs until the staged
        ciphertext's predicted IV becomes current, then deliver it."""
        cpu, gpu = endpoints
        target_iv = cpu.tx_iv.peek(ahead=3)
        staged = cpu.encrypt_with_iv(b"staged", target_iv)
        while cpu.tx_iv.current < target_iv:
            nop = cpu.encrypt_next(b"\x00")
            gpu.decrypt_next(nop)
        cpu.commit_tx_iv()
        assert gpu.decrypt_next(staged) == b"staged"

    def test_staged_and_unstaged_seal_agree(self):
        """A staged seal is the unstaged one, committed as it ships."""

        class Audit:
            def __init__(self):
                self.seen = []

            def observe(self, key, stream, iv):
                self.seen.append((stream, iv))

        sealed = {}
        for staged in (False, True):
            cpu, gpu = SecureSession(key=bytes(range(16))).endpoints()
            audit = Audit()
            cpu.attach_audit(audit)
            first = cpu.tx_iv.current
            message = cpu.seal(b"kv-chunk", staged, nbytes_logical=1 << 20)
            assert cpu.tx_iv.current == first + 1
            assert audit.seen == [("cpu.tx", first)]
            assert gpu.decrypt_next(message) == b"kv-chunk"
            assert message.nbytes_logical == 1 << 20
            sealed[staged] = (message.ciphertext, message.tag, message.sender_iv)
        assert sealed[True] == sealed[False]


class TestInvariantsUnderOptimize:
    """Invariant checks raise explicitly, so ``python -O`` keeps them."""

    SKIPPED_COMMIT = (
        "from repro.crypto import SecureSession\n"
        "cpu, _ = SecureSession(key=bytes(range(16))).endpoints()\n"
        "commit = cpu.commit_tx_iv\n"
        "cpu.commit_tx_iv = lambda: (commit(), commit())[1]\n"
        "try:\n"
        "    cpu.seal(b'kv-chunk', staged=True)\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
    )

    def test_staged_seal_desync_raises_under_optimize(self):
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", self.SKIPPED_COMMIT],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "raised: cpu: staged IV desynced" in done.stdout

    @pytest.mark.parametrize("module", [
        "repro.crypto.session", "repro.disagg.migration", "repro.parallel.tp",
        "repro.bench.serve",
    ])
    def test_no_bare_assert_guards_an_invariant(self, module):
        source = Path(importlib.import_module(module).__file__).read_text()
        asserts = [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]
        assert asserts == [], f"{module}: bare assert at lines {asserts}"


class TestSessionFactory:
    def test_custom_start_ivs(self):
        session = SecureSession(key=bytes(16), h2d_start_iv=100, d2h_start_iv=200)
        cpu, gpu = session.endpoints()
        assert cpu.tx_iv.current == 100
        assert gpu.rx_iv.current == 100
        assert gpu.tx_iv.current == 200
        assert cpu.rx_iv.current == 200

    def test_bad_key_rejected(self):
        with pytest.raises(ValueError):
            SecureSession(key=b"short")
