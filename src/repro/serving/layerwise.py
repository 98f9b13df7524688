"""Layer-wise KV-cache swapping — the FIFO pattern of Figure 5 (§5.1).

The paper distinguishes two KV swapping granularities: request-wise
(vLLM, LIFO — :mod:`repro.serving.vllm`) and *layer-wise*, where a
throughput-oriented engine keeps a huge batch alive by holding most of
the KV cache in host memory and streaming each layer's KV in for its
computation and back out afterwards: "applications swap out KV cache
of each layer in order, and then retrieve them in the same order, thus
the pattern is FIFO". This engine exercises exactly that pattern end
to end.

Unlike weight streaming, layer KV is *rewritten every step* (each
decode appends a token's K/V to every layer), so the swap-in of step
``t`` must carry the bytes written back at step ``t-1``. This makes
the engine a sharp test of staleness handling: speculative ciphertext
staged before the write-back is invalid, and the runtime must notice
through the page-protection path rather than ship old KV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..cc.api import DeviceRuntime
from ..cc.machine import Machine
from ..hw.memory import MemoryChunk, Region
from ..models import ModelSpec
from ..workloads import SyntheticShape
from .stream import Engine

__all__ = ["LayerwiseConfig", "LayerwiseKvEngine", "LayerwiseResult"]

_PAYLOAD_BYTES = 16


@dataclass
class LayerwiseConfig:
    """One layer-wise KV-swapping test case."""

    spec: ModelSpec
    shape: SyntheticShape
    batch_size: int
    #: How many layers' KV stay resident on the GPU (the rest stream).
    resident_kv_layers: Optional[int] = None
    #: GPU bytes reserved for activations/workspace.
    reserve_bytes: int = 4 << 30

    def kv_layer_bytes(self, context: int) -> int:
        """KV bytes of ONE layer for the whole batch at a context."""
        return int(self.batch_size * context * self.spec.kv_bytes_per_token_layer())

    def compute_resident(self, gpu_memory_bytes: int) -> int:
        max_context = self.shape.prompt_len + self.shape.output_len
        per_layer = self.kv_layer_bytes(max_context)
        budget = (
            gpu_memory_bytes
            - self.spec.total_bytes
            - self.reserve_bytes
            - 2 * per_layer  # double-buffer for the streamed layer
        )
        if budget < 0:
            return 0
        return max(0, min(self.spec.n_layers, int(budget // per_layer)))


@dataclass
class LayerwiseResult:
    config_label: str
    generated_tokens: int
    elapsed: float
    streamed_layers: int
    swap_in_count: int

    @property
    def throughput(self) -> float:
        return self.generated_tokens / self.elapsed if self.elapsed > 0 else 0.0


class LayerwiseKvEngine(Engine[LayerwiseResult]):
    """Decode loop streaming per-layer KV in FIFO order."""

    def __init__(self, machine: Machine, runtime: DeviceRuntime, config: LayerwiseConfig) -> None:
        super().__init__(machine, runtime, config)
        spec = config.spec

        resident = (
            config.resident_kv_layers
            if config.resident_kv_layers is not None
            else config.compute_resident(machine.params.gpu_memory_bytes)
        )
        self.n_resident = max(0, min(spec.n_layers, resident))
        self.streamed = list(range(self.n_resident, spec.n_layers))

        # One stable host region per streamed layer. The logical size
        # is the layer's KV at maximum context (a fixed-size arena, as
        # real engines preallocate), so the classifier sees one stable
        # chunk size — which we register as the KV hint.
        max_context = config.shape.prompt_len + config.shape.output_len
        self.kv_bytes = config.kv_layer_bytes(max_context)
        runtime.hint_kv_block_size(self.kv_bytes)
        self._regions: Dict[int, Region] = {
            layer: machine.host_memory.allocate(
                self.kv_bytes, tag=f"kv.layer.{layer}",
                payload=self._payload(layer, step=-1),
            )
            for layer in self.streamed
        }

    @staticmethod
    def _payload(layer: int, step: int) -> bytes:
        return f"kv-L{layer}-s{step}".encode()[:_PAYLOAD_BYTES]

    # -- decode loop ------------------------------------------------------------

    def _main(self):
        config = self.config
        sim = self.machine.sim
        start = sim.now

        for step in range(config.shape.output_len):
            context = config.shape.prompt_len + step
            for layer in range(config.spec.n_layers):
                region = self._regions.get(layer)
                if region is not None:
                    yield self.runtime.cpu_access(region.addr)
                    chunk = self.machine.host_memory.chunk_at(region.addr)
                    handle = self.runtime.memcpy_h2d(chunk)
                    yield handle.api_done
                    yield handle.complete
                    self.swap_in_count += 1
                work = self.cost.decode_layer(config.batch_size, context)
                yield self.machine.gpu.compute(work.flops, work.bytes_touched, layers=1)
                if region is not None:
                    # Write the grown KV back out — FIFO: layer order.
                    payload = self._payload(layer, step)
                    self.machine.gpu.store_plaintext(region.tag, payload)
                    out = self.runtime.memcpy_d2h(
                        MemoryChunk(region.addr, self.kv_bytes, payload, region.tag)
                    )
                    yield out.api_done
            yield self.runtime.synchronize()

        self.result = LayerwiseResult(
            config_label=f"{config.spec.name} layerwise {config.shape.label}",
            generated_tokens=config.batch_size * config.shape.output_len,
            elapsed=sim.now - start,
            streamed_layers=len(self.streamed),
            swap_in_count=self.swap_in_count,
        )
