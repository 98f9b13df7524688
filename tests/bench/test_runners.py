"""Experiment-runner helper tests (quick configurations)."""

import pytest

from repro.bench import EXPERIMENTS
from repro.bench.experiments import FULL, QUICK, run_flexgen, run_peft, run_vllm
from repro.bench.systems import CC, WITHOUT_CC, pipellm
from repro.models import OPT_13B, OPT_30B, OPT_66B
from repro.workloads import ALPACA, SHAREGPT, SyntheticShape


class TestScale:
    def test_quick_smaller_than_full(self):
        assert QUICK.flexgen_requests < FULL.flexgen_requests
        assert QUICK.vllm_duration < FULL.vllm_duration
        assert QUICK.peft_steps < FULL.peft_steps

    def test_quick_shortens_outputs_full_does_not(self):
        assert QUICK.flexgen_output is not None
        assert FULL.flexgen_output is None

    def test_scale_resolution(self):
        from repro.bench.experiments import get_scale

        assert get_scale("quick") is QUICK
        assert get_scale("full") is FULL
        assert get_scale(QUICK) is QUICK
        with pytest.raises(KeyError):
            get_scale("huge")

    @pytest.mark.slow
    @pytest.mark.parametrize("experiment", ["cluster", "serve", "disagg"])
    def test_fleet_campaigns_resolve_scale(self, experiment):
        # These campaigns size their own sweeps; a Scale must pick the
        # same sizes as its name does.
        run = EXPERIMENTS[experiment]
        assert run(QUICK).to_dict() == run("quick").to_dict()


class TestRunners:
    def test_run_flexgen_returns_result_and_runtime(self):
        result, runtime = run_flexgen(
            WITHOUT_CC, OPT_66B, SyntheticShape(32, 2), batch_size=8, n_requests=8
        )
        assert result.generated_tokens == 16
        assert runtime.machine.pcie.bus_log  # transfers crossed the bus

    def test_run_peft(self):
        result, _ = run_peft(WITHOUT_CC, OPT_13B, batch_size=4, resident_layers=38, steps=1)
        assert result.steps == 1
        assert result.offloaded_layers == 2

    def test_run_vllm(self):
        result, _ = run_vllm(WITHOUT_CC, OPT_30B, ALPACA, rate=2.0, parallel_n=2, duration=5.0)
        assert result.finished > 0

    def test_run_vllm_seed_determinism(self):
        a, _ = run_vllm(CC, OPT_30B, SHAREGPT, rate=1.0, parallel_n=2, duration=8.0, seed=5)
        b, _ = run_vllm(CC, OPT_30B, SHAREGPT, rate=1.0, parallel_n=2, duration=8.0, seed=5)
        assert a.mean_normalized_latency == b.mean_normalized_latency
        assert a.swap_in_count == b.swap_in_count

    def test_run_vllm_different_seed_differs(self):
        a, _ = run_vllm(WITHOUT_CC, OPT_30B, SHAREGPT, rate=1.0, parallel_n=2, duration=8.0, seed=5)
        b, _ = run_vllm(WITHOUT_CC, OPT_30B, SHAREGPT, rate=1.0, parallel_n=2, duration=8.0, seed=6)
        assert a.normalized_latencies != b.normalized_latencies

    def test_pipellm_runner_exposes_stats(self):
        _, runtime = run_flexgen(
            pipellm(4, 2), OPT_66B, SyntheticShape(32, 2), batch_size=8, n_requests=8
        )
        assert "success_rate" in runtime.stats()
