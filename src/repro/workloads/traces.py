"""Synthetic stand-ins for the paper's request traces.

The paper drives vLLM with ShareGPT and Alpaca (§7.1) under Poisson
arrivals. We have neither dataset offline; what the swap behaviour
actually depends on is the *token-length distribution* (long
conversations create the KV pressure; short instructions don't) and
the arrival process. The generators below sample clamped lognormal
lengths matching the published summary statistics of each dataset
(ShareGPT: mean ≈161 input / ≈338 output tokens; Alpaca: ≈19 input /
≈58 output — the numbers reported in the vLLM paper both works build
on), which preserves the relevant behaviour per the substitution rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ..sim import SeededRng
from .requests import Request

__all__ = [
    "TraceSpec",
    "SHAREGPT",
    "ALPACA",
    "SHAREGPT_SERVE",
    "ALPACA_SERVE",
    "poisson_trace",
]


@dataclass(frozen=True)
class TraceSpec:
    """Length distribution of one dataset (clamped lognormal)."""

    name: str
    mean_prompt: float
    sigma_prompt: float
    max_prompt: int
    mean_output: float
    sigma_output: float
    max_output: int

    def _params(self, mean: float, sigma_log: float) -> float:
        """Lognormal mu for a target arithmetic mean."""
        return math.log(mean) - 0.5 * sigma_log * sigma_log

    def sample_prompt(self, rng: SeededRng) -> int:
        mu = self._params(self.mean_prompt, self.sigma_prompt)
        return rng.lognormal_int(mu, self.sigma_prompt, 4, self.max_prompt)

    def sample_output(self, rng: SeededRng) -> int:
        mu = self._params(self.mean_output, self.sigma_output)
        return rng.lognormal_int(mu, self.sigma_output, 4, self.max_output)


SHAREGPT = TraceSpec(
    name="sharegpt",
    mean_prompt=161.0, sigma_prompt=1.0, max_prompt=1024,
    mean_output=338.0, sigma_output=0.8, max_output=1024,
)

ALPACA = TraceSpec(
    name="alpaca",
    mean_prompt=19.0, sigma_prompt=0.8, max_prompt=128,
    mean_output=58.0, sigma_output=0.7, max_output=256,
)

#: Online-serving presets: the same published length statistics, with
#: outputs clamped to interactive completion sizes so a latency
#: frontier sweep (many rates × systems × policies) simulates in
#: seconds. ShareGPT keeps its long, heavy-tailed prompts — the KV
#: pressure that makes the CC-vs-PipeLLM gap visible — while Alpaca
#: stays short-instruction shaped.
SHAREGPT_SERVE = TraceSpec(
    name="sharegpt-serve",
    mean_prompt=161.0, sigma_prompt=1.0, max_prompt=512,
    mean_output=48.0, sigma_output=0.8, max_output=128,
)

ALPACA_SERVE = TraceSpec(
    name="alpaca-serve",
    mean_prompt=19.0, sigma_prompt=0.8, max_prompt=128,
    mean_output=24.0, sigma_output=0.7, max_output=64,
)


def poisson_trace(
    spec: TraceSpec,
    rate: float,
    duration: float,
    rng: SeededRng,
    parallel_n: int = 1,
) -> List[Request]:
    """Poisson arrivals at ``rate`` req/s for ``duration`` seconds."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng_a = rng.fork(f"{spec.name}.arrivals")
    rng_p = rng.fork(f"{spec.name}.prompt")
    rng_o = rng.fork(f"{spec.name}.output")
    requests: List[Request] = []
    t = 0.0
    index = 0
    while True:
        t += rng_a.exponential(rate)
        if t >= duration:
            break
        requests.append(
            Request(
                request_id=index,
                arrival_time=t,
                prompt_len=spec.sample_prompt(rng_p),
                output_len=spec.sample_output(rng_o),
                parallel_n=parallel_n,
            )
        )
        index += 1
    return requests
