"""PipeLLMConfig validation tests."""

import pytest

from repro.cc import CcMode, build_machine
from repro.core import PipeLLMConfig, PipeLLMRuntime


class TestDefaults:
    def test_paper_defaults(self):
        config = PipeLLMConfig()
        assert config.async_decrypt
        assert config.adaptive_leeway
        assert config.sabotage is None
        assert config.kv_depth <= config.depth

    def test_leeway_economics_documented_in_bounds(self):
        # NOPs are cheap: the adaptive leeway's ceiling must allow
        # substantial headroom.
        runtime = PipeLLMRuntime(build_machine(CcMode.ENABLED))
        runtime._leeway_value = 1e9
        assert runtime._leeway() >= 32


class TestValidation:
    def test_depth_positive(self):
        with pytest.raises(ValueError):
            PipeLLMConfig(depth=0)

    def test_leeway_non_negative(self):
        with pytest.raises(ValueError):
            PipeLLMConfig(leeway=-1)

    def test_sabotage_checked_downstream(self):
        # The config carries the string; the predictor validates it.
        from repro.core import SwapPredictor, TransferClassifier

        with pytest.raises(ValueError):
            SwapPredictor(TransferClassifier(), sabotage="nonsense")
