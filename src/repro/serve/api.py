"""OpenAI-style completion request/response model.

The front end speaks the shape production LLM services expose — a
completion request with a token budget and (optionally) streaming,
answered by either a stream of per-token chunks or one final response
object with usage accounting. Payloads are *token counts*, not text:
the simulation cares about lengths and timing, never content, exactly
like the trace stand-ins in :mod:`repro.workloads.traces`.

All timestamps are **simulated seconds**.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

__all__ = [
    "TIERS",
    "CompletionRequest",
    "CompletionResponse",
    "StreamChunk",
    "Usage",
]

#: Priority tiers, best first. Admission policies order by tier index.
TIERS = ("interactive", "standard", "batch")


@dataclass(frozen=True)
class CompletionRequest:
    """One inbound completion call.

    ``prompt_tokens`` / ``max_tokens`` stand in for the prompt text
    and the completion budget; ``tenant`` is the API key owner the
    gateway runs the per-tenant encrypted session for.
    """

    request_id: int
    tenant: str
    prompt_tokens: int
    max_tokens: int
    arrival_time: float = 0.0
    tier: str = "standard"
    stream: bool = True
    model: str = "opt-13b"

    def __post_init__(self) -> None:
        if self.tier not in TIERS:
            raise ValueError(f"unknown tier {self.tier!r}; choose from {TIERS}")
        if self.prompt_tokens < 1 or self.max_tokens < 1:
            raise ValueError("prompt_tokens and max_tokens must be >= 1")

    @property
    def priority(self) -> int:
        """Lower is more urgent (index into :data:`TIERS`)."""
        return TIERS.index(self.tier)


@dataclass(frozen=True)
class StreamChunk:
    """One server-sent token event of a streaming completion."""

    request_id: int
    index: int  # 1-based token index within the completion
    time: float  # simulated arrival time at the client


@dataclass(frozen=True)
class Usage:
    """Token accounting of one completion."""

    prompt_tokens: int
    completion_tokens: int


@dataclass
class CompletionResponse:
    """Terminal outcome of one completion request.

    ``finish_reason`` is ``"stop"`` for a served completion or
    ``"shed:<reason>"`` when admission control or the gateway dropped
    the request (capacity / timeout / deadline / overload / kv-budget).
    TTFT/TPOT are ``nan`` until the first token arrives.
    """

    request: CompletionRequest
    created: float
    finish_reason: str
    usage: Usage
    first_token_time: float = math.nan
    finish_time: float = math.nan
    #: Dispatch/handshake attempts at the gateway (>1 = failover).
    attempts: int = 0
    chunks: List[StreamChunk] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.finish_reason == "stop"

    @property
    def ttft(self) -> float:
        """Time to first token (simulated seconds, nan if never served)."""
        return self.first_token_time - self.request.arrival_time

    @property
    def tpot(self) -> float:
        """Time per output token after the first (nan if not applicable)."""
        n = self.usage.completion_tokens
        if n <= 1 or math.isnan(self.first_token_time):
            return math.nan
        return (self.finish_time - self.first_token_time) / (n - 1)

    @property
    def latency(self) -> float:
        """End-to-end latency (arrival to finish)."""
        return self.finish_time - self.request.arrival_time
