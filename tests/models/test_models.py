"""Model geometry tests: sizes must match the paper's statements."""

import pytest

from repro.hw import GB
from repro.models import (
    KvGeometry,
    MODELS,
    OPT_13B,
    OPT_175B_4BIT,
    OPT_30B,
    OPT_66B,
    TransformerCostModel,
)


class TestPaperSizes:
    def test_opt66b_exceeds_h100(self):
        # §1: "the OPT-66B model needs approximately 132GB" (decimal).
        assert OPT_66B.total_bytes == pytest.approx(132e9, rel=0.05)
        assert OPT_66B.total_bytes > 80 * GB

    def test_opt30b_fits_at_75_percent(self):
        # §7.2: OPT-30B ≈ 60 GB ≈ 75 % of GPU memory (decimal GB).
        assert OPT_30B.total_bytes == pytest.approx(60e9, rel=0.05)
        assert 0.65 < OPT_30B.total_bytes / (80 * GB) < 0.80

    def test_opt13b_fits_at_a_third(self):
        # §7.2: OPT-13B ≈ 26 GB ≈ 32.5 % of GPU memory (decimal GB).
        assert OPT_13B.total_bytes == pytest.approx(26e9, rel=0.05)

    def test_opt175b_4bit_exceeds_h100(self):
        assert OPT_175B_4BIT.total_bytes > 80 * GB

    def test_param_counts_roughly_nominal(self):
        for spec, nominal in ((OPT_13B, 13e9), (OPT_30B, 30e9), (OPT_66B, 66e9)):
            params = spec.n_layers * spec.layer_params + (spec.vocab + spec.max_seq_len) * spec.hidden
            assert params == pytest.approx(nominal, rel=0.08)

    def test_registry(self):
        assert set(MODELS) == {"opt-13b", "opt-30b", "opt-66b", "opt-175b-4bit"}


class TestKvGeometry:
    def test_block_bytes(self):
        geometry = KvGeometry(OPT_30B, block_size=16)
        per_token = OPT_30B.kv_bytes_per_token()
        assert geometry.block_bytes == 16 * per_token

    def test_blocks_for_tokens_ceiling(self):
        geometry = KvGeometry(OPT_30B, block_size=16)
        assert geometry.blocks_for_tokens(0) == 0
        assert geometry.blocks_for_tokens(1) == 1
        assert geometry.blocks_for_tokens(16) == 1
        assert geometry.blocks_for_tokens(17) == 2

    def test_negative_tokens_rejected(self):
        with pytest.raises(ValueError):
            KvGeometry(OPT_30B).blocks_for_tokens(-1)

    def test_gpu_block_budget_positive_for_30b(self):
        geometry = KvGeometry(OPT_30B)
        budget = geometry.gpu_block_budget(80 * GB, reserved_bytes=4 * GB)
        assert budget > 0
        # Roughly 20 GiB of KV space at ~21 MiB/block.
        assert 500 < budget < 1100

    def test_gpu_block_budget_zero_when_model_too_big(self):
        geometry = KvGeometry(OPT_66B)
        assert geometry.gpu_block_budget(80 * GB) == 0


class TestCostModel:
    def test_decode_step_scales_with_layers(self):
        cost = TransformerCostModel(OPT_30B)
        layer = cost.decode_layer(batch=8, mean_context=100)
        step = cost.decode_step(batch=8, mean_context=100)
        assert step.flops == pytest.approx(layer.flops * OPT_30B.n_layers)
        assert step.layers == OPT_30B.n_layers

    def test_decode_reads_weights_once_per_step(self):
        cost = TransformerCostModel(OPT_30B)
        small = cost.decode_step(batch=1, mean_context=10)
        # Weight reads dominate at small batch.
        assert small.bytes_touched >= OPT_30B.n_layers * OPT_30B.layer_bytes

    def test_prefill_scales_with_tokens(self):
        cost = TransformerCostModel(OPT_30B)
        one = cost.prefill(1000)
        two = cost.prefill(2000)
        assert two.flops > 1.9 * one.flops

    def test_kv_read_grows_with_context(self):
        cost = TransformerCostModel(OPT_30B)
        short = cost.decode_layer(batch=16, mean_context=10)
        long = cost.decode_layer(batch=16, mean_context=1000)
        assert long.bytes_touched > short.bytes_touched
