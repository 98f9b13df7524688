"""FlexGen-like throughput-oriented inference with model offloading.

Reproduces the substrate of the paper's case study 1 (§3) and the
Fig. 3a / Fig. 7 experiments: a model larger than GPU memory is served
by keeping a prefix of layers resident and streaming the rest from
host memory every pass, in a fixed layer order — the *repetitive*
swap pattern of Figure 5a. A :class:`~repro.serving.stream.LayerStream`
overlaps the next layer's load with the current layer's compute,
exactly the structure that makes CC's inline encryption catastrophic:
the ``cudaMemcpyAsync`` call itself blocks on the CPU AES.

The engine is written purely against :class:`DeviceRuntime`, so the
same code runs on "w/o CC", "CC" and PipeLLM machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cc.api import DeviceRuntime
from ..cc.machine import Machine
from ..hw.memory import Region
from ..models import ModelSpec
from ..sim import SeededRng
from ..workloads import SyntheticShape
from .stream import _PREFETCH_DEPTH, Engine, LayerStream

__all__ = ["FlexGenConfig", "FlexGenEngine", "FlexGenResult"]

#: Functional payload bytes per streamed layer (timing uses the
#: logical layer size; the payload only feeds the crypto layer).
_PAYLOAD_BYTES = 24


@dataclass
class FlexGenConfig:
    """One FlexGen test case."""

    spec: ModelSpec
    shape: SyntheticShape
    batch_size: int
    n_requests: int
    #: GPU bytes reserved for KV cache, activations and workspace
    #: (the paper pins all KV on the GPU for the offloading study).
    reserve_bytes: Optional[int] = None
    seed: int = 1

    def kv_bytes(self) -> int:
        tokens = self.shape.prompt_len + self.shape.output_len
        return int(self.batch_size * tokens * self.spec.kv_bytes_per_token())

    def resident_layers(self, gpu_memory_bytes: int) -> int:
        """Layers that fit on the GPU beside KV + workspace + 2 stream buffers."""
        reserve = self.reserve_bytes if self.reserve_bytes is not None else self.kv_bytes()
        budget = (
            gpu_memory_bytes
            - reserve
            - self.spec.embedding_bytes
            - _PREFETCH_DEPTH * self.spec.layer_bytes
        )
        resident = int(budget // self.spec.layer_bytes)
        return max(0, min(self.spec.n_layers, resident))


@dataclass
class FlexGenResult:
    """Throughput summary of one run."""

    config_label: str
    generated_tokens: int
    elapsed: float
    offloaded_layers: int
    swap_in_count: int

    @property
    def throughput(self) -> float:
        """Generated tokens per second (the paper's FlexGen metric)."""
        return self.generated_tokens / self.elapsed if self.elapsed > 0 else 0.0


class FlexGenEngine(Engine[FlexGenResult]):
    """Layer-streaming batched generation over a DeviceRuntime."""

    def __init__(self, machine: Machine, runtime: DeviceRuntime, config: FlexGenConfig) -> None:
        super().__init__(machine, runtime, config)
        spec = config.spec

        self.n_resident = config.resident_layers(machine.params.gpu_memory_bytes)
        self.offloaded = list(range(self.n_resident, spec.n_layers))
        runtime.hint_weight_chunk_size(spec.layer_bytes)

        # Host copies of the offloaded layers (read-only weights).
        rng = SeededRng(config.seed)
        self._regions: Dict[int, Region] = {
            layer: machine.host_memory.allocate(
                spec.layer_bytes, tag=f"{spec.name}.layer.{layer}",
                payload=rng.bytes(_PAYLOAD_BYTES),
            )
            for layer in self.offloaded
        }

        # Device-memory accounting for the resident part.
        machine.gpu.alloc("weights.resident", self.n_resident * spec.layer_bytes)
        machine.gpu.alloc("embeddings", spec.embedding_bytes)
        machine.gpu.alloc("kv+workspace", config.reserve_bytes or config.kv_bytes())
        machine.gpu.alloc("stream-buffers", _PREFETCH_DEPTH * spec.layer_bytes)

    # -- generation loop ----------------------------------------------------------

    def _passes(self) -> List[str]:
        """The pass schedule of one batch: 1 prefill + N-1 decode steps."""
        return ["prefill"] + ["decode"] * (self.config.shape.output_len - 1)

    def _main(self):
        config = self.config
        n_batches = -(-config.n_requests // config.batch_size)
        start = self.machine.sim.now

        # One stream over every offloaded-layer load of the run, so
        # prefetch runs ahead across pass and batch boundaries.
        stream = LayerStream(
            self.machine, self.runtime, self._regions,
            self.offloaded * (n_batches * len(self._passes())),
        )

        for batch_index in range(n_batches):
            batch = min(config.batch_size, config.n_requests - batch_index * config.batch_size)
            for pass_index, pass_kind in enumerate(self._passes()):
                context = config.shape.prompt_len + pass_index
                pass_start = self.machine.sim.now
                for layer in range(config.spec.n_layers):
                    if layer in self._regions:
                        yield from stream.fetch(layer)
                        self.swap_in_count += 1
                    work = self._layer_work(pass_kind, batch, context)
                    compute_done = self.machine.gpu.compute(
                        work.flops, work.bytes_touched, layers=1
                    )
                    # Keep the pipeline fed while the GPU computes.
                    yield from stream.top_up()
                    yield compute_done
                # One model pass on the "serving" telemetry lane.
                self.machine.telemetry.tracer.record(
                    "serving.flexgen", pass_kind, pass_start, self.machine.sim.now
                )

        elapsed = self.machine.sim.now - start
        generated = config.n_requests * config.shape.output_len
        self.result = FlexGenResult(
            config_label=f"{config.spec.name} {config.shape.label}",
            generated_tokens=generated,
            elapsed=elapsed,
            offloaded_layers=len(self.offloaded),
            swap_in_count=self.swap_in_count,
        )

    def _layer_work(self, pass_kind: str, batch: int, context: int):
        if pass_kind == "prefill":
            return self.cost.prefill_layer(batch * self.config.shape.prompt_len)
        return self.cost.decode_layer(batch, context)
