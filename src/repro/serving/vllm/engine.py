"""vLLM-like serving engine with KV-cache swapping.

Reproduces the substrate of the paper's case study 2 (§3) and the
Fig. 3b / Fig. 8 / Fig. 9 / Fig. 10 experiments: model weights stay
resident; memory pressure from many concurrent requests is handled by
request-wise KV swapping (preempt → swap out → resume LIFO). Every
iteration also moves small control transfers (token ids in, sampled
tokens out) — the traffic that perturbs PipeLLM's IV stream and
exercises NOP padding and the adaptive leeway.

The engine runs against any :class:`DeviceRuntime`; the normalized
latency metric (s per output token, averaged over requests) matches
the paper's serving plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ...cc.api import DeviceRuntime
from ...cc.machine import Machine
from ...models import KvGeometry, ModelSpec
from ...sim import SeededRng, mean, percentile
from ...workloads import Request
from ..stream import Engine
from .batching import PAYLOAD_BYTES, ContinuousBatcher
from .scheduler import SequenceGroup

__all__ = ["VllmConfig", "VllmEngine", "VllmResult"]

#: Seed of the KV swap payloads.
_SEED = 1

#: Safety horizon (simulated seconds) after which the run aborts.
_MAX_SIM_TIME = 36_000.0


@dataclass
class VllmConfig:
    """One vLLM serving test case."""

    spec: ModelSpec
    requests: List[Request]
    #: GPU bytes kept free for activations and workspace.
    reserve_bytes: int = 4 << 30


@dataclass
class VllmResult:
    """Latency summary of one run."""

    normalized_latencies: List[float]
    elapsed: float
    swap_out_count: int
    swap_in_count: int
    finished: int

    @property
    def mean_normalized_latency(self) -> float:
        """Seconds per generated token, averaged over requests."""
        return mean(self.normalized_latencies)

    def latency_percentile(self, q: float) -> float:
        """Normalized-latency percentile across requests (q in [0,100])."""
        return percentile(self.normalized_latencies, q)


class VllmEngine(ContinuousBatcher, Engine[VllmResult]):
    """Continuous batching + request-wise KV swapping over a request
    set known up front, admitted as the simulated clock reaches each
    arrival."""

    def __init__(self, machine: Machine, runtime: DeviceRuntime, config: VllmConfig) -> None:
        if not config.requests:
            raise ValueError("config.requests must not be empty")
        super().__init__(machine, runtime, config)
        self.geometry = KvGeometry(config.spec)
        self._rng = SeededRng(_SEED)
        self._start_batching(config.reserve_bytes)
        self._future = sorted(
            (SequenceGroup(request=r) for r in config.requests),
            key=lambda g: g.request.arrival_time,
        )

    def _main(self):
        sim = self.machine.sim
        state = self.state
        future = self._future
        start = sim.now
        while future or state.waiting or state.running or state.swapped:
            if sim.now - start > _MAX_SIM_TIME:
                break
            while future and future[0].request.arrival_time <= sim.now:
                state.waiting.append(future.pop(0))
            step_start = sim.now
            if (yield from self.step()):
                # One scheduler step on the "serving" telemetry lane.
                self.machine.telemetry.tracer.record("serving.vllm", "step", step_start, sim.now)
            elif future:
                yield sim.timeout(max(future[0].request.arrival_time - sim.now, 1e-6))
            else:  # Nothing runs or arrives, yet groups are queued.
                raise RuntimeError(f"queued groups never fit {self.blocks.total_blocks} KV blocks")
        self.result = VllmResult(
            normalized_latencies=[g.normalized_latency() for g in state.finished],
            elapsed=sim.now - start,
            swap_out_count=self.swap_out_count,
            swap_in_count=self.swap_in_count,
            finished=len(state.finished),
        )

    def _swap_payload(self, tag: str) -> bytes:
        return self._rng.fork(tag).bytes(PAYLOAD_BYTES)
