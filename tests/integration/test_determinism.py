"""Whole-system determinism: identical inputs, identical simulations.

Reproducibility of EXPERIMENTS.md rests on this property, so it gets
its own end-to-end tests across all three runtime systems.
"""

import pytest

from repro.bench.experiments import run_flexgen, run_vllm
from repro.bench.systems import CC, WITHOUT_CC, pipellm
from repro.models import OPT_30B, OPT_66B
from repro.workloads import ALPACA, SyntheticShape


class TestDeterminism:
    @pytest.mark.parametrize("system", [WITHOUT_CC, CC, pipellm(4, 2)],
                             ids=["w/o CC", "CC", "PipeLLM"])
    def test_flexgen_bitwise_repeatable(self, system):
        shape = SyntheticShape(32, 3)
        a, _ = run_flexgen(system, OPT_66B, shape, batch_size=8, n_requests=8)
        b, _ = run_flexgen(system, OPT_66B, shape, batch_size=8, n_requests=8)
        assert a.elapsed == b.elapsed
        assert a.throughput == b.throughput

    @pytest.mark.parametrize("system", [WITHOUT_CC, pipellm(1, 1)],
                             ids=["w/o CC", "PipeLLM"])
    def test_vllm_bitwise_repeatable(self, system):
        a, _ = run_vllm(system, OPT_30B, ALPACA, rate=4.0, parallel_n=2, duration=6.0)
        b, _ = run_vllm(system, OPT_30B, ALPACA, rate=4.0, parallel_n=2, duration=6.0)
        assert a.normalized_latencies == b.normalized_latencies
        assert a.swap_in_count == b.swap_in_count

    def test_pipellm_stats_repeatable(self):
        system = pipellm(4, 2)
        _, r1 = run_flexgen(system, OPT_66B, SyntheticShape(32, 3), 8, 8)
        _, r2 = run_flexgen(system, OPT_66B, SyntheticShape(32, 3), 8, 8)
        assert r1.stats() == r2.stats()
