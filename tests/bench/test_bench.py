"""Tests for the benchmark harness: systems registry and tables."""

from dataclasses import replace

import pytest

from repro.bench.experiments import QUICK, fig2_microbenchmark
from repro.bench.systems import CC, SystemSpec, WITHOUT_CC, cc_threads, pipellm, pipellm_zero
from repro.bench.tables import ExperimentResult
from repro.cc import CcMode, CudaContext
from repro.core import PipeLLMRuntime


class TestSystemSpecs:
    def test_without_cc(self):
        machine, runtime = WITHOUT_CC.build()
        assert not machine.cc_enabled
        assert isinstance(runtime, CudaContext)

    def test_cc_single_thread(self):
        machine, runtime = CC.build()
        assert machine.cc_enabled
        assert machine.engine.enc_threads == 1
        assert isinstance(runtime, CudaContext)

    def test_cc_threads(self):
        spec = cc_threads(4)
        machine, _ = spec.build()
        assert spec.name == "CC-4t"
        assert machine.engine.enc_threads == 4
        assert machine.engine.dec_threads == 4

    def test_pipellm(self):
        spec = pipellm(8, 2)
        machine, runtime = spec.build()
        assert isinstance(runtime, PipeLLMRuntime)
        assert machine.engine.enc_threads == 8
        assert runtime.config.sabotage is None

    def test_pipellm_zero(self):
        spec = pipellm_zero()
        _, runtime = spec.build()
        assert spec.name == "PipeLLM-0"
        assert runtime.config.sabotage == "reverse"

    def test_with_threads(self):
        spec = replace(CC, enc_threads=3, dec_threads=5)
        machine, _ = spec.build()
        assert machine.engine.enc_threads == 3
        assert machine.engine.dec_threads == 5

    def test_builds_are_independent(self):
        a, _ = CC.build()
        b, _ = CC.build()
        assert a is not b


class TestExperimentResult:
    def make(self):
        return ExperimentResult("figX", "test", columns=["a", "b"])

    def test_add_and_find(self):
        result = self.make()
        result.add_row(a=1, b="x")
        result.add_row(a=2, b="y")
        assert result.find(a=2)["b"] == "y"
        assert result.column("a") == [1, 2]

    def test_unknown_column_rejected(self):
        result = self.make()
        with pytest.raises(KeyError):
            result.add_row(c=1)
        with pytest.raises(KeyError):
            result.column("c")

    def test_find_missing_raises(self):
        with pytest.raises(KeyError):
            self.make().find(a=9)

    def test_select(self):
        result = self.make()
        result.add_row(a=1, b="x")
        result.add_row(a=1, b="y")
        assert len(result.select(a=1)) == 2

    def test_render_contains_data(self):
        result = self.make()
        result.add_row(a=1.5, b="hello")
        result.add_note("a note")
        text = result.render()
        assert "figX" in text
        assert "hello" in text
        assert "note: a note" in text


class TestFig2:
    """The microbenchmark is cheap enough to assert here in full."""

    @pytest.fixture(scope="class")
    def result(self):
        return fig2_microbenchmark(QUICK)

    def test_all_rows_present(self, result):
        assert len(result.rows) == 8

    def test_cc_latency_order_of_magnitude(self, result):
        ncc = result.find(size="32MB", system="w/o CC")
        cc = result.find(size="32MB", system="CC")
        # Paper: 1.43 µs vs 5252 µs.
        assert cc["latency_us"] / ncc["latency_us"] > 1000

    def test_cc_throughput_collapse(self, result):
        ncc = result.find(size="32MB", system="w/o CC")
        cc = result.find(size="32MB", system="CC")
        # Paper: 55.31 vs 5.83 GB/s — about an order of magnitude.
        assert 6 < ncc["throughput_gbps"] / cc["throughput_gbps"] < 14

    def test_values_match_paper_closely(self, result):
        assert result.find(size="1MB", system="CC")["throughput_gbps"] == pytest.approx(
            5.82, rel=0.1
        )
        assert result.find(size="32MB", system="w/o CC")["throughput_gbps"] == pytest.approx(
            55.31, rel=0.05
        )
