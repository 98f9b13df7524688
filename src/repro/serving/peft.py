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
from typing import Dict, List, Optional

from ..cc.api import DeviceRuntime, TransferHandle
from ..cc.machine import Machine
from ..hw.memory import MemoryChunk, Region
from ..models import ModelSpec, TransformerCostModel
from ..sim import SeededRng
from ..workloads import FineTuneBatch

__all__ = ["PeftConfig", "PeftEngine", "PeftResult"]

_PREFETCH_DEPTH = 2
_PAYLOAD_BYTES = 24

#: Backward pass costs roughly 2× the forward GEMMs.
_BACKWARD_FACTOR = 2.0


@dataclass
class PeftConfig:
    """One LoRA fine-tuning test case."""

    spec: ModelSpec
    batches: List[FineTuneBatch]
    #: How many layers stay resident on the GPU (DeepSpeed offloads
    #: the rest to make room for activations).
    resident_layers: int
    #: LoRA rank (adapter size: 2·r·h per projection, 4 projections).
    lora_rank: int = 16
    seed: int = 1


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


class PeftEngine:
    """Layer-streaming forward/backward fine-tuning loop."""

    def __init__(self, machine: Machine, runtime: DeviceRuntime, config: PeftConfig) -> None:
        if not config.batches:
            raise ValueError("config.batches must not be empty")
        self.machine = machine
        self.runtime = runtime
        self.config = config
        self.cost = TransformerCostModel(config.spec)
        self._rng = SeededRng(config.seed)
        spec = config.spec

        self.n_resident = max(0, min(spec.n_layers, config.resident_layers))
        self.offloaded = list(range(self.n_resident, spec.n_layers))
        runtime.hint_weight_chunk_size(spec.layer_bytes)

        self._regions: Dict[int, Region] = {}
        for layer in self.offloaded:
            self._regions[layer] = machine.host_memory.allocate(
                spec.layer_bytes,
                tag=f"{spec.name}.ft.layer.{layer}",
                payload=self._rng.bytes(_PAYLOAD_BYTES),
            )
        # Host-side LoRA adapter state, rewritten by the optimizer each
        # step (exercises the write-fault invalidation path).
        self.adapter_bytes = int(8 * config.lora_rank * spec.hidden * spec.n_layers * 2)
        self._adapters = machine.host_memory.allocate(
            max(self.adapter_bytes, 4096), tag="lora.adapters", payload=b"adapters-v0"
        )

        self.swap_in_count = 0
        self.result: Optional[PeftResult] = None

    # -- public API ------------------------------------------------------------

    def run(self) -> PeftResult:
        self.machine.sim.process(self._main())
        self.machine.run()
        if self.result is None:
            raise RuntimeError("PEFT run did not complete")
        return self.result

    # -- training loop ----------------------------------------------------------

    def _step_layer_sequence(self) -> List[int]:
        """Offloaded-layer loads of one step: forward then backward."""
        forward = [l for l in range(self.config.spec.n_layers) if l in self._regions]
        return forward + list(reversed(forward))

    def _main(self):
        config = self.config
        start = self.machine.sim.now
        per_step = self._step_layer_sequence()
        schedule: List[int] = []
        for _ in config.batches:
            schedule.extend(per_step)

        inflight: Dict[int, TransferHandle] = {}
        cursor = 0

        def issue_prefetch():
            nonlocal cursor
            while cursor < len(schedule) and len(inflight) < _PREFETCH_DEPTH:
                layer = schedule[cursor]
                if layer in inflight:
                    break
                region = self._regions[layer]
                chunk = self.machine.host_memory.chunk_at(region.addr)
                handle = self.runtime.memcpy_h2d(chunk)
                yield handle.api_done  # Blocks under CC: inline AES.
                inflight[layer] = handle
                cursor += 1

        for batch in config.batches:
            tokens = batch.total_tokens
            for phase, factor in (("forward", 1.0), ("backward", _BACKWARD_FACTOR)):
                layer_order = (
                    range(config.spec.n_layers)
                    if phase == "forward"
                    else range(config.spec.n_layers - 1, -1, -1)
                )
                phase_start = self.machine.sim.now
                for layer in layer_order:
                    if layer in self._regions:
                        yield from issue_prefetch()
                        handle = inflight.pop(layer, None)
                        if handle is None:
                            region = self._regions[layer]
                            chunk = self.machine.host_memory.chunk_at(region.addr)
                            handle = self.runtime.memcpy_h2d(chunk)
                            yield handle.api_done
                        yield handle.complete
                        self.swap_in_count += 1
                    work = self.cost.prefill_layer(tokens)
                    compute_done = self.machine.gpu.compute(
                        factor * work.flops, work.bytes_touched, layers=1
                    )
                    yield from issue_prefetch()
                    yield compute_done
                # One forward/backward phase on the "serving" lane.
                self.machine.sim.tracer.record(
                    "serving.peft", phase, phase_start, self.machine.sim.now
                )

            # Optimizer step: adapter gradients come down, updated
            # adapters are written on the CPU (invalidating any staged
            # ciphertext covering them), then go back up.
            grad_chunk = MemoryChunk(
                self._adapters.addr, max(self.adapter_bytes, 4096),
                b"grads", "lora.grads",
            )
            handle = self.runtime.memcpy_d2h(grad_chunk)
            yield handle.api_done
            yield self.runtime.synchronize()
            yield self.runtime.cpu_access(self._adapters.addr)
            self.machine.host_memory.write(
                self._adapters.addr, f"adapters-b{batch.batch_id}".encode()
            )
            up = self.machine.host_memory.chunk_at(self._adapters.addr)
            handle = self.runtime.memcpy_h2d(up)
            yield handle.complete

        elapsed = self.machine.sim.now - start
        total_tokens = sum(b.total_tokens for b in config.batches)
        self.result = PeftResult(
            config_label=f"{config.spec.name} lora-r{config.lora_rank}",
            total_tokens=total_tokens,
            steps=len(config.batches),
            elapsed=elapsed,
            offloaded_layers=len(self.offloaded),
        )
