"""Wall-clock lockdown for the AES-GCM backends (slow; deselect with -m 'not slow').

Pins the headline property of the accelerated backends: on a fixed
bulk encrypt/decrypt loop, the auto-detected backend
(``make_gcm(key)``) is at least ``FLOOR``× faster than the pure-Python
reference (``make_gcm(key, "reference")``) *while producing
byte-identical results*. The workload is deliberately small and
deterministic so the ratio — not the absolute time — is what matters;
ratios are robust to machine speed, which absolute budgets are not.

The loop drives the cipher directly rather than through a session:
sessions tier every payload above ``TIER_THRESHOLD`` to a 45-byte
digest, so a session-level workload would no longer exercise the
cipher on bulk bytes.

Also asserts the wall-clock hygiene lint stays clean: the simulation
tree itself still never reads wall time (these tests may — they live
outside ``src/``, which is all the lint scans).
"""

import time
from pathlib import Path

import pytest

from repro.crypto.backend import available_backends, make_gcm
from repro.crypto.gcm import iv_from_counter
from tests.observatory.lint import ALLOWED_WALL_CLOCK_FILES, wall_clock_call_sites

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Minimum auto/reference speedup on the bulk GCM loop. The slowest
#: accelerated backend (numpy batching) clears this with margin;
#: hardware AES-GCM clears it by orders of magnitude.
FLOOR = 5.0

_ACCELERATED = [b for b in available_backends() if b != "reference"]


def crypto_workload(backend=None):
    """Fixed bulk-traffic loop through one backend; returns a transcript.

    Keys differ per backend label, so one backend's run is never
    served from the GCM instances another backend's run cached.
    """
    transcript = []
    label = (backend or "auto").encode()
    for i in range(6):
        key = bytes([i]) * 8 + label.ljust(8, b".")[:8]
        gcm = make_gcm(key, backend)
        for j in range(40):
            payload = bytes([(i * 40 + j) % 256]) * 1600
            nonce = iv_from_counter(1 + i * 40 + j)
            ciphertext, tag = gcm.encrypt(nonce, payload)
            transcript.append((ciphertext, tag))
            assert gcm.decrypt(nonce, ciphertext, tag) == payload
    return transcript


def timed(backend=None):
    start = time.perf_counter()
    transcript = crypto_workload(backend)
    return time.perf_counter() - start, transcript


@pytest.mark.slow
class TestSpeedupFloor:
    @pytest.mark.skipif(
        not _ACCELERATED,
        reason="no accelerated AES-GCM backend available; auto == reference",
    )
    def test_fast_profile_at_least_5x_on_crypto_workload(self):
        # Interleave and keep the best of three to shave scheduler noise.
        fast_times, ref_times = [], []
        for _ in range(3):
            ref_s, _ = timed("reference")
            fast_s, _ = timed()
            ref_times.append(ref_s)
            fast_times.append(fast_s)
        speedup = min(ref_times) / min(fast_times)
        assert speedup >= FLOOR, (
            f"auto-detected backend only {speedup:.1f}x faster than "
            f"reference (floor {FLOOR}x; backends: {available_backends()})"
        )

    def test_profiles_differ_only_in_speed_within_a_profile(self):
        # Same backend, same keys ⇒ byte-identical transcripts; the
        # stopwatch is the only thing allowed to change run over run.
        _, first = timed()
        _, second = timed()
        assert first == second


@pytest.mark.slow
class TestWallClockHygiene:
    def test_simulation_tree_still_never_reads_wall_time(self):
        # The fast path added no wall-clock reads anywhere in src/.
        assert wall_clock_call_sites(SRC) == []

    def test_allowed_list_unchanged(self):
        assert set(ALLOWED_WALL_CLOCK_FILES) == {
            "cli.py", "observatory/dashboard.py"
        }
