"""Request and batch types shared by all workloads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

__all__ = ["Request", "FineTuneBatch"]


@dataclass
class Request:
    """One inference request as the serving engine sees it."""

    request_id: int
    arrival_time: float
    prompt_len: int
    output_len: int
    #: Parallel-sampling width: how many output sequences share the
    #: prompt (vLLM's ``n`` parameter; the paper sweeps 2/4/6).
    parallel_n: int = 1

    def __post_init__(self) -> None:
        if self.prompt_len <= 0 or self.output_len <= 0:
            raise ValueError("prompt_len and output_len must be positive")
        if self.parallel_n < 1:
            raise ValueError("parallel_n must be >= 1")


@dataclass
class FineTuneBatch:
    """One fine-tuning micro-batch (sequences already tokenized)."""

    batch_id: int
    seq_lens: List[int] = field(default_factory=list)

    @property
    def total_tokens(self) -> int:
        return sum(self.seq_lens)
