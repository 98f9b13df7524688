"""Trace-driven open-loop load generation."""

import pytest

from repro.serve import DEFAULT_TIER_MIX, LoadSpec, generate_load
from repro.workloads import ALPACA_SERVE, SHAREGPT_SERVE


class TestLoadSpec:
    def test_validates_rate_duration_tenants(self):
        with pytest.raises(ValueError):
            LoadSpec(rate=0.0)
        with pytest.raises(ValueError):
            LoadSpec(duration=0.0)
        with pytest.raises(ValueError):
            LoadSpec(tenants=0)

    def test_validates_tier_mix(self):
        with pytest.raises(ValueError):
            LoadSpec(tier_mix=(("interactive", 0.5),))  # sums to 0.5
        with pytest.raises(ValueError):
            LoadSpec(tier_mix=(("gold", 1.0),))


class TestGenerateLoad:
    def test_deterministic_under_seed(self):
        spec = LoadSpec(rate=20.0, duration=5.0, seed=9)
        assert generate_load(spec) == generate_load(spec)

    def test_seed_argument_changes_the_draw(self):
        spec = LoadSpec(rate=20.0, duration=5.0, seed=9)
        assert generate_load(spec) != generate_load(spec, seed=10)

    def test_arrivals_ordered_within_window(self):
        requests = generate_load(LoadSpec(rate=30.0, duration=4.0))
        assert len(requests) > 0
        times = [r.arrival_time for r in requests]
        assert times == sorted(times)
        assert all(0.0 <= t < 4.0 for t in times)

    def test_tier_mix_roughly_respected(self):
        requests = generate_load(LoadSpec(rate=200.0, duration=10.0))
        fractions = {
            tier: sum(1 for r in requests if r.tier == tier) / len(requests)
            for tier, _ in DEFAULT_TIER_MIX
        }
        for tier, weight in DEFAULT_TIER_MIX:
            assert fractions[tier] == pytest.approx(weight, abs=0.08)

    def test_tenants_within_population(self):
        requests = generate_load(LoadSpec(rate=50.0, duration=4.0, tenants=3))
        tenants = {r.tenant for r in requests}
        assert tenants <= {f"tenant-{i}" for i in range(3)}
        assert len(tenants) > 1

    def test_trace_presets_shape_the_lengths(self):
        long_prompts = generate_load(
            LoadSpec(trace=SHAREGPT_SERVE, rate=100.0, duration=10.0)
        )
        short_prompts = generate_load(
            LoadSpec(trace=ALPACA_SERVE, rate=100.0, duration=10.0)
        )
        mean_long = sum(r.prompt_tokens for r in long_prompts) / len(long_prompts)
        mean_short = sum(r.prompt_tokens for r in short_prompts) / len(short_prompts)
        assert mean_long > 3 * mean_short
