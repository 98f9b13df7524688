"""OPT model family geometry.

All byte and FLOP accounting for the experiments derives from these
specs. Sizes match the paper's statements: OPT-66B needs ≈132 GB of
fp16 weights ("exceeding the 80GB of H100"), OPT-30B ≈60 GB (75 % of
GPU memory), OPT-13B ≈26 GB (32.5 %), and OPT-175B is evaluated
4-bit-quantized.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ModelSpec", "OPT_13B", "OPT_30B", "OPT_66B", "OPT_175B_4BIT", "MODELS"]


@dataclass(frozen=True)
class ModelSpec:
    """Transformer geometry plus derived sizes."""

    name: str
    n_layers: int
    hidden: int
    n_heads: int
    #: Bytes per weight scalar (2 = fp16, 0.5 = 4-bit quantized).
    dtype_bytes: float = 2.0
    #: Bytes per KV-cache scalar (KV usually stays fp16 even when
    #: weights are quantized).
    kv_dtype_bytes: float = 2.0
    vocab: int = 50272
    max_seq_len: int = 2048

    # -- derived sizes -------------------------------------------------------

    @property
    def layer_params(self) -> int:
        """Parameters in one transformer layer ≈ 12·h² (4·h² attention
        + 8·h² feed-forward), biases and norms ignored."""
        return 12 * self.hidden * self.hidden

    @property
    def layer_bytes(self) -> int:
        return int(self.layer_params * self.dtype_bytes)

    @property
    def embedding_bytes(self) -> int:
        """Token + positional embeddings (kept fp16 in all variants)."""
        return int((self.vocab + self.max_seq_len) * self.hidden * 2)

    @property
    def total_bytes(self) -> int:
        return self.n_layers * self.layer_bytes + self.embedding_bytes

    def kv_bytes_per_token_layer(self) -> int:
        """K and V vectors of one token in one layer."""
        return int(2 * self.hidden * self.kv_dtype_bytes)

    def kv_bytes_per_token(self) -> int:
        """K and V vectors of one token across all layers."""
        return self.n_layers * self.kv_bytes_per_token_layer()

    # -- per-layer FLOPs ---------------------------------------------------------

    def layer_decode_flops(self, context_len: int) -> float:
        """FLOPs for one layer processing ONE new token.

        2 FLOPs per parameter for the GEMMs plus the attention over
        the existing context (4·h per cached token for QK^T and AV).
        """
        return 2.0 * self.layer_params + 4.0 * self.hidden * context_len

    def layer_prefill_flops(self, prompt_len: int) -> float:
        """FLOPs for one layer ingesting a ``prompt_len``-token prompt."""
        gemm = 2.0 * self.layer_params * prompt_len
        attention = 2.0 * self.hidden * prompt_len * prompt_len
        return gemm + attention


OPT_13B = ModelSpec("opt-13b", n_layers=40, hidden=5120, n_heads=40)
OPT_30B = ModelSpec("opt-30b", n_layers=48, hidden=7168, n_heads=56)
OPT_66B = ModelSpec("opt-66b", n_layers=64, hidden=9216, n_heads=72)
OPT_175B_4BIT = ModelSpec(
    "opt-175b-4bit", n_layers=96, hidden=12288, n_heads=96, dtype_bytes=0.5
)

MODELS = {spec.name: spec for spec in (OPT_13B, OPT_30B, OPT_66B, OPT_175B_4BIT)}
