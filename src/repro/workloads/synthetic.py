"""Synthetic fixed-length workloads (FlexGen-style, §7.1).

The paper evaluates FlexGen with synthetic datasets at fixed
(input, output) shapes — (32, 128) and (256, 32) — and 1000 requests
per test case, batched for maximum throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
__all__ = ["SyntheticShape", "FLEXGEN_32_128", "FLEXGEN_256_32"]


@dataclass(frozen=True)
class SyntheticShape:
    """A fixed (prompt, output) token shape."""

    prompt_len: int
    output_len: int

    @property
    def label(self) -> str:
        return f"in{self.prompt_len}/out{self.output_len}"


FLEXGEN_32_128 = SyntheticShape(prompt_len=32, output_len=128)
FLEXGEN_256_32 = SyntheticShape(prompt_len=256, output_len=32)
