"""Roofline latency model for transformer execution on the GPU.

Converts :class:`~repro.models.specs.ModelSpec` geometry into the
FLOP and byte counts the :class:`~repro.hw.gpu.GpuEnclave` roofline
consumes. Decode steps are memory-bound (every resident weight byte
is read once per step regardless of batch size); prefill is
compute-bound. This split is what makes FlexGen PCIe-bound and vLLM
compute-bound at low load — the regimes the paper's figures live in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .specs import ModelSpec

__all__ = ["LayerWork", "TransformerCostModel"]


@dataclass(frozen=True)
class LayerWork:
    """FLOPs and HBM bytes of one kernel-launch batch."""

    flops: float
    bytes_touched: float
    layers: int = 1


class TransformerCostModel:
    """Per-step workload sizing for serving."""

    def __init__(self, spec: ModelSpec) -> None:
        self.spec = spec

    # -- inference ---------------------------------------------------------

    def decode_layer(self, batch: int, mean_context: float) -> LayerWork:
        """One layer, one decode step, for a batch of sequences."""
        spec = self.spec
        flops = batch * spec.layer_decode_flops(int(mean_context))
        kv_read = batch * mean_context * spec.kv_bytes_per_token_layer()
        bytes_touched = spec.layer_bytes + kv_read
        return LayerWork(flops, bytes_touched)

    def decode_step(self, batch: int, mean_context: float) -> LayerWork:
        """All layers, one decode step."""
        per_layer = self.decode_layer(batch, mean_context)
        return LayerWork(
            per_layer.flops * self.spec.n_layers,
            per_layer.bytes_touched * self.spec.n_layers,
            layers=self.spec.n_layers,
        )

    def prefill_layer(self, total_prompt_tokens: int) -> LayerWork:
        """One layer ingesting ``total_prompt_tokens`` across the batch."""
        spec = self.spec
        flops = spec.layer_prefill_flops(total_prompt_tokens)
        bytes_touched = spec.layer_bytes + total_prompt_tokens * spec.kv_bytes_per_token_layer()
        return LayerWork(flops, bytes_touched)

    def prefill(self, total_prompt_tokens: int) -> LayerWork:
        per_layer = self.prefill_layer(total_prompt_tokens)
        return LayerWork(
            per_layer.flops * self.spec.n_layers,
            per_layer.bytes_touched * self.spec.n_layers,
            layers=self.spec.n_layers,
        )

    def step_work(self, prefill_tokens: int, decode: Sequence) -> LayerWork:
        """One serving step: ``prefill_tokens`` prompt tokens plus one
        decode token per sequence of each resident in ``decode``
        (residents expose ``request`` and ``context_len()``)."""
        flops = 0.0
        bytes_touched = 0.0
        if prefill_tokens:
            work = self.prefill(prefill_tokens)
            flops += work.flops
            bytes_touched += work.bytes_touched
        decode_seqs = context = 0
        for r in decode:
            decode_seqs += r.request.parallel_n
            context += r.context_len()
        if decode_seqs:
            # One exact integer sum, divided once: the mean of the floats.
            work = self.decode_step(decode_seqs, context / len(decode))
            flops += work.flops
            bytes_touched += work.bytes_touched
        return LayerWork(flops, bytes_touched, layers=self.spec.n_layers)
