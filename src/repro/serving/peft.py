"""PEFT-like LoRA fine-tuning with DeepSpeed-style model offloading.

Reproduces the substrate of the paper's case study 3 (§3) and the
Fig. 3c / Fig. 7 fine-tuning experiments: base-model weights are
offloaded to host memory (ZeRO-Offload keeps them there to free GPU
memory for activations and larger batches) and streamed in layer by
layer — forward in layer order, backward in reverse — the repetitive
pattern of Figure 5a with period 2·L.

LoRA keeps the *trainable* state tiny: only the adapter gradients
travel device→host and the updated adapters travel back each step.
Crucially for PipeLLM's validator, the adapter regions are *written*
by the optimizer every step, so any speculative ciphertext staged from
them is invalidated through the page-fault path — base weights, by
contrast, are read-only and always safely pre-encryptable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..cc.api import DeviceRuntime
from ..cc.machine import Machine
from ..hw.memory import MemoryChunk, Region
from ..models import ModelSpec
from ..sim import SeededRng
from ..workloads import FineTuneBatch
from .stream import Engine, LayerStream

__all__ = ["PeftConfig", "PeftEngine", "PeftResult"]

_PAYLOAD_BYTES = 24

#: Backward pass costs roughly 2× the forward GEMMs.
_BACKWARD_FACTOR = 2.0

#: LoRA rank (adapter size: 2·r·h per projection, 4 projections).
_LORA_RANK = 16

#: Seed of the base weights' functional payload bytes.
_SEED = 1


@dataclass
class PeftConfig:
    """One LoRA fine-tuning test case."""

    spec: ModelSpec
    batches: List[FineTuneBatch]
    #: How many layers stay resident on the GPU (DeepSpeed offloads
    #: the rest to make room for activations).
    resident_layers: int


@dataclass
class PeftResult:
    """Training-throughput summary of one run."""

    config_label: str
    total_tokens: int
    steps: int
    elapsed: float
    offloaded_layers: int

    @property
    def throughput(self) -> float:
        """Training tokens per second."""
        return self.total_tokens / self.elapsed if self.elapsed > 0 else 0.0


class PeftEngine(Engine[PeftResult]):
    """Layer-streaming forward/backward fine-tuning loop.

    ZeRO-Offload reuses the step loop; it replaces ``_allocate``,
    ``_streams``, ``_after_backward`` and ``_optimize``.
    """

    #: Telemetry lane of the forward/backward phase spans.
    _LANE = "serving.peft"

    def __init__(self, machine: Machine, runtime: DeviceRuntime, config: PeftConfig) -> None:
        if not config.batches:
            raise ValueError("config.batches must not be empty")
        super().__init__(machine, runtime, config)
        spec = config.spec

        self.n_resident = max(0, min(spec.n_layers, config.resident_layers))
        self.offloaded = list(range(self.n_resident, spec.n_layers))
        runtime.hint_weight_chunk_size(spec.layer_bytes)
        #: Offloaded-layer loads of one step: forward then backward.
        self._step_order = self.offloaded + self.offloaded[::-1]
        self._regions: Dict[int, Region] = self._allocate()

    def _allocate(self) -> Dict[int, Region]:
        """Read-only base weights, plus the LoRA adapter state."""
        spec = self.config.spec
        rng = SeededRng(_SEED)
        regions = {
            layer: self.machine.host_memory.allocate(
                spec.layer_bytes,
                tag=f"{spec.name}.ft.layer.{layer}",
                payload=rng.bytes(_PAYLOAD_BYTES),
            )
            for layer in self.offloaded
        }
        # Host-side LoRA adapter state, rewritten by the optimizer each
        # step (exercises the write-fault invalidation path).
        self.adapter_bytes = int(8 * _LORA_RANK * spec.hidden * spec.n_layers * 2)
        self._adapters = self.machine.host_memory.allocate(
            max(self.adapter_bytes, 4096), tag="lora.adapters", payload=b"adapters-v0"
        )
        return regions

    # -- training loop ----------------------------------------------------------

    def _streams(self) -> List[LayerStream]:
        """One stream per step. The base weights are read-only, so one
        stream runs ahead across every step boundary."""
        steps = len(self.config.batches)
        order = self._step_order * steps
        return [LayerStream(self.machine, self.runtime, self._regions, order)] * steps

    def _main(self):
        config = self.config
        sim = self.machine.sim
        start = sim.now
        n_layers = config.spec.n_layers
        phases = (
            ("forward", 1.0, range(n_layers)),
            ("backward", _BACKWARD_FACTOR, range(n_layers - 1, -1, -1)),
        )
        for step, (batch, stream) in enumerate(zip(config.batches, self._streams())):
            tokens = batch.total_tokens
            for phase, factor, layer_order in phases:
                phase_start = sim.now
                for layer in layer_order:
                    if layer in self._regions:
                        yield from stream.fetch(layer)
                        self.swap_in_count += 1
                    work = self.cost.prefill_layer(tokens)
                    compute_done = self.machine.gpu.compute(
                        factor * work.flops, work.bytes_touched, layers=1
                    )
                    yield from stream.top_up()
                    yield compute_done
                    if phase == "backward" and layer in self._regions:
                        yield from self._after_backward(layer, step)
                # One forward/backward phase on the "serving" lane.
                self.machine.telemetry.tracer.record(self._LANE, phase, phase_start, sim.now)
            yield from self._optimize(step, batch)

        self.result = PeftResult(
            config_label=self._label(),
            total_tokens=sum(b.total_tokens for b in config.batches),
            steps=len(config.batches),
            elapsed=sim.now - start,
            offloaded_layers=len(self.offloaded),
        )

    def _label(self) -> str:
        return f"{self.config.spec.name} lora-r{_LORA_RANK}"

    def _after_backward(self, layer: int, step: int):
        """After a streamed layer's backward: LoRA's gradients stay on
        the GPU until the optimizer step."""
        return ()

    def _optimize(self, step: int, batch: FineTuneBatch):
        """Adapter gradients come down, updated adapters are written on
        the CPU (invalidating any staged ciphertext covering them), then
        go back up."""
        grads = MemoryChunk(
            self._adapters.addr, max(self.adapter_bytes, 4096), b"grads", "lora.grads"
        )
        yield self.runtime.memcpy_d2h(grads).api_done
        yield self.runtime.synchronize()
        yield self.runtime.cpu_access(self._adapters.addr)
        self.machine.host_memory.write(
            self._adapters.addr, f"adapters-b{batch.batch_id}".encode()
        )
        up = self.machine.host_memory.chunk_at(self._adapters.addr)
        yield self.runtime.memcpy_h2d(up).complete
