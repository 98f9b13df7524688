"""Workload-generator tests: determinism and distribution shape."""

import pytest

from repro.sim import SeededRng, mean
from repro.workloads import (
    ALPACA,
    ALPACA_SERVE,
    FLEXGEN_256_32,
    FLEXGEN_32_128,
    FineTuneBatch,
    Request,
    SHAREGPT,
    SHAREGPT_SERVE,
    poisson_trace,
    ultrachat_batches,
)


def sample(spec, count, rng):
    """About ``count`` requests drawn from ``spec`` (Poisson, one second)."""
    return poisson_trace(spec, rate=count, duration=1.0, rng=rng)


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[int(q * len(ordered))]


class TestRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            Request(0, 0.0, prompt_len=0, output_len=1)
        with pytest.raises(ValueError):
            Request(0, 0.0, prompt_len=1, output_len=1, parallel_n=0)


class TestSynthetic:
    def test_fixed_shapes(self):
        assert FLEXGEN_32_128.prompt_len == 32
        assert FLEXGEN_32_128.output_len == 128
        assert FLEXGEN_256_32.label == "in256/out32"


class TestTraces:
    def test_sharegpt_is_long_alpaca_is_short(self):
        rng = SeededRng(1)
        share = sample(SHAREGPT, 300, rng)
        alpaca = sample(ALPACA, 300, rng)
        assert mean([r.prompt_len for r in share]) > 3 * mean([r.prompt_len for r in alpaca])
        assert mean([r.output_len for r in share]) > 3 * mean([r.output_len for r in alpaca])

    def test_mean_lengths_near_spec(self):
        requests = sample(SHAREGPT, 2000, SeededRng(2))
        assert mean([r.prompt_len for r in requests]) == pytest.approx(161, rel=0.35)
        assert mean([r.output_len for r in requests]) == pytest.approx(338, rel=0.35)

    def test_lengths_clamped(self):
        requests = sample(SHAREGPT, 500, SeededRng(3))
        assert all(4 <= r.prompt_len <= SHAREGPT.max_prompt for r in requests)
        assert all(4 <= r.output_len <= SHAREGPT.max_output for r in requests)

    def test_deterministic(self):
        a = sample(ALPACA, 50, SeededRng(7))
        b = sample(ALPACA, 50, SeededRng(7))
        assert [(r.prompt_len, r.output_len) for r in a] == [
            (r.prompt_len, r.output_len) for r in b
        ]


class TestServeTraces:
    """Online-serving presets: same published prompt statistics as the
    batch traces, with outputs clamped to interactive completion sizes."""

    def test_prompts_keep_the_published_means(self):
        share = sample(SHAREGPT_SERVE, 2000, SeededRng(2))
        alpaca = sample(ALPACA_SERVE, 2000, SeededRng(2))
        # ShareGPT's clamp at 512 pulls the arithmetic mean below 161.
        assert mean([r.prompt_len for r in share]) == pytest.approx(150, rel=0.2)
        assert mean([r.prompt_len for r in alpaca]) == pytest.approx(19, rel=0.2)

    def test_outputs_clamped_to_interactive_sizes(self):
        share = sample(SHAREGPT_SERVE, 1000, SeededRng(3))
        alpaca = sample(ALPACA_SERVE, 1000, SeededRng(3))
        assert all(r.output_len <= SHAREGPT_SERVE.max_output == 128 for r in share)
        assert all(r.output_len <= ALPACA_SERVE.max_output == 64 for r in alpaca)
        assert mean([r.output_len for r in share]) < mean(
            [r.output_len for r in sample(SHAREGPT, 1000, SeededRng(3))]
        )

    def test_lognormal_shape_median_below_mean(self):
        # A heavy right tail: p50 well under the mean, p95 near the clamp.
        requests = sample(SHAREGPT_SERVE, 4000, SeededRng(2))
        prompts = [r.prompt_len for r in requests]
        assert _percentile(prompts, 0.5) < 0.8 * mean(prompts)
        assert _percentile(prompts, 0.95) > 2 * mean(prompts)
        assert all(4 <= p <= SHAREGPT_SERVE.max_prompt for p in prompts)

    def test_serve_presets_deterministic(self):
        a = sample(ALPACA_SERVE, 50, SeededRng(11))
        b = sample(ALPACA_SERVE, 50, SeededRng(11))
        assert [(r.prompt_len, r.output_len) for r in a] == [
            (r.prompt_len, r.output_len) for r in b
        ]


class TestPoisson:
    def test_arrivals_sorted_and_bounded(self):
        requests = poisson_trace(ALPACA, rate=5.0, duration=20.0, rng=SeededRng(1))
        times = [r.arrival_time for r in requests]
        assert times == sorted(times)
        assert all(0 < t < 20.0 for t in times)

    def test_rate_matches(self):
        requests = poisson_trace(ALPACA, rate=10.0, duration=100.0, rng=SeededRng(2))
        assert len(requests) == pytest.approx(1000, rel=0.15)

    def test_parallel_n_propagates(self):
        requests = poisson_trace(ALPACA, rate=5.0, duration=10.0, rng=SeededRng(1), parallel_n=6)
        assert all(r.parallel_n == 6 for r in requests)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_trace(ALPACA, rate=0.0, duration=1.0, rng=SeededRng(1))

    def test_ids_sequential(self):
        requests = poisson_trace(ALPACA, rate=5.0, duration=10.0, rng=SeededRng(1))
        assert [r.request_id for r in requests] == list(range(len(requests)))


class TestFineTune:
    def test_batch_shape(self):
        batches = ultrachat_batches(4, 8, SeededRng(5))
        assert len(batches) == 4
        assert all(len(b.seq_lens) == 8 for b in batches)

    def test_token_totals_positive(self):
        batches = ultrachat_batches(3, 8, SeededRng(5))
        assert all(b.total_tokens > 8 * 64 for b in batches)

    def test_mean_length_near_ultrachat(self):
        batches = ultrachat_batches(40, 16, SeededRng(6))
        lens = [l for b in batches for l in b.seq_lens]
        assert mean(lens) == pytest.approx(1100, rel=0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ultrachat_batches(0, 8, SeededRng(1))

    def test_empty_batch_total(self):
        assert FineTuneBatch(0).total_tokens == 0
