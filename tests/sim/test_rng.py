"""Determinism and distribution tests for SeededRng."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import SeededRng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = SeededRng(42)
        b = SeededRng(42)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_fork_is_stable(self):
        # fork() must be stable across interpreter runs — it is keyed by
        # CRC32, not by Python's salted hash().
        child = SeededRng(42).fork("workload")
        assert child.seed == SeededRng(42).fork("workload").seed

    def test_fork_labels_independent(self):
        root = SeededRng(42)
        assert root.fork("a").seed != root.fork("b").seed

    def test_fork_isolates_draws(self):
        root = SeededRng(1)
        a = root.fork("a")
        before = a.random()
        # Drawing from another fork must not perturb this one.
        root2 = SeededRng(1)
        root2.fork("b").random()
        a2 = root2.fork("a")
        assert a2.random() == before


class TestDistributions:
    def test_exponential_positive(self):
        rng = SeededRng(3)
        samples = [rng.exponential(2.0) for _ in range(100)]
        assert all(s > 0 for s in samples)

    def test_exponential_mean(self):
        rng = SeededRng(3)
        samples = [rng.exponential(4.0) for _ in range(5000)]
        assert sum(samples) / len(samples) == pytest.approx(0.25, rel=0.1)

    def test_exponential_rate_validation(self):
        with pytest.raises(ValueError):
            SeededRng(1).exponential(0.0)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_lognormal_clamped(self, seed):
        rng = SeededRng(seed)
        value = rng.lognormal_int(5.0, 1.0, low=4, high=1024)
        assert 4 <= value <= 1024

    def test_bytes_deterministic_length(self):
        rng = SeededRng(9)
        payload = rng.bytes(24)
        assert len(payload) == 24
        assert payload == SeededRng(9).bytes(24)

    def test_uniform_range(self):
        rng = SeededRng(5)
        for _ in range(50):
            assert 1.0 <= rng.uniform(1.0, 2.0) <= 2.0
