"""Trace-driven open-loop load generation for the serving front end.

Builds on the Poisson/lognormal machinery in
:mod:`repro.workloads.traces`: a :class:`LoadSpec` names a length
distribution (ShareGPT/Alpaca serve presets or any :class:`TraceSpec`)
and an offered rate, and :func:`generate_load` samples the full
arrival sequence up front — open loop, so offered load never adapts
to the service's backlog (the property that makes latency-vs-load
frontiers honest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..sim import SeededRng, default_seed
from ..workloads import SHAREGPT_SERVE, TraceSpec, poisson_trace
from .api import TIERS, CompletionRequest

__all__ = ["LoadSpec", "generate_load"]

#: Default traffic mix: mostly interactive chat, some standard API
#: calls, a batch tail.
DEFAULT_TIER_MIX: Tuple[Tuple[str, float], ...] = (
    ("interactive", 0.5),
    ("standard", 0.3),
    ("batch", 0.2),
)


@dataclass(frozen=True)
class LoadSpec:
    """One open-loop workload: distribution × rate × duration."""

    trace: TraceSpec = SHAREGPT_SERVE
    rate: float = 8.0  # offered requests per simulated second
    duration: float = 10.0  # arrival window (simulated seconds)
    tenants: int = 4
    tier_mix: Tuple[Tuple[str, float], ...] = DEFAULT_TIER_MIX
    seed: int = 42

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.duration <= 0:
            raise ValueError("rate and duration must be positive")
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")
        total = sum(w for _, w in self.tier_mix)
        if not self.tier_mix or abs(total - 1.0) > 1e-9:
            raise ValueError("tier_mix weights must sum to 1")
        for tier, _ in self.tier_mix:
            if tier not in TIERS:
                raise ValueError(f"unknown tier {tier!r}")


def _pick_tier(mix: Tuple[Tuple[str, float], ...], u: float) -> str:
    acc = 0.0
    for tier, weight in mix:
        acc += weight
        if u < acc:
            return tier
    return mix[-1][0]


def generate_load(
    spec: LoadSpec, seed: Optional[int] = None
) -> List[CompletionRequest]:
    """Sample the full arrival sequence of one load spec.

    Deterministic under (spec, seed); the CLI ``--seed`` override wins
    over both the argument and the spec's own seed, matching every
    other workload generator.
    """
    effective = default_seed(spec.seed if seed is None else seed)
    rng = SeededRng(effective)
    trace = poisson_trace(spec.trace, spec.rate, spec.duration, rng)
    rng_tenant = rng.fork("serve.tenants")
    rng_tier = rng.fork("serve.tiers")
    out: List[CompletionRequest] = []
    for request in trace:
        out.append(CompletionRequest(
            request_id=request.request_id,
            tenant=f"tenant-{rng_tenant.randint(0, spec.tenants - 1)}",
            prompt_tokens=request.prompt_len,
            max_tokens=request.output_len,
            arrival_time=request.arrival_time,
            tier=_pick_tier(spec.tier_mix, rng_tier.random()),
        ))
    return out
