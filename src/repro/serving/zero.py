"""ZeRO-Offload-style full fine-tuning (DeepSpeed, §2.1).

The paper's PEFT case study fine-tunes LoRA adapters: the streamed
base weights are read-only, PipeLLM's favorite case. DeepSpeed's
ZeRO-Offload also supports *full* fine-tuning — fp16 weights stream to
the GPU per layer, gradients stream back per layer, and a CPU-side
Adam step updates the master weights between steps.

That makes the weight stream **read-write**: every host weight buffer
is rewritten once per step by the optimizer. For PipeLLM this is the
adversarial case for weight speculation:

* ciphertext staged *before* the optimizer step is stale and must die
  through the page-protection fault (§5.2), never ship;
* ciphertext staged *after* the update is valid for the whole next
  step — so prediction still wins, it just must re-encrypt once per
  layer per step;
* the gradient stream doubles the D2H volume, loading the
  asynchronous decryptor and the decryption thread pool.

The engine is :class:`~repro.serving.peft.PeftEngine`'s step loop
plus what is its own: the weight and gradient regions, the per-layer
gradient swap-out in backward, and the CPU optimizer phase. Its
prefetch window never crosses the optimizer step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..hw.memory import MemoryChunk, Region
from ..models import ModelSpec
from ..workloads import FineTuneBatch
from .peft import PeftEngine
from .stream import LayerStream

__all__ = ["ZeroOffloadConfig", "ZeroOffloadEngine"]

_PAYLOAD_BYTES = 20

#: CPU Adam step throughput over the fp32 master weights (B/s): reads
#: master+grad+two moments, writes master+moments — DDR-bound.
_OPTIMIZER_BANDWIDTH = 20e9


@dataclass
class ZeroOffloadConfig:
    """One full fine-tuning test case."""

    spec: ModelSpec
    batches: List[FineTuneBatch]
    #: Layers resident on the GPU; the rest stream per pass.
    resident_layers: int = 0


class ZeroOffloadEngine(PeftEngine):
    """Full fine-tuning with weight + gradient streaming."""

    _LANE = "serving.zero"
    config: ZeroOffloadConfig

    def _allocate(self) -> Dict[int, Region]:
        """Per offloaded layer: fp16 weights (REWRITTEN each step), gradients."""
        spec = self.config.spec
        weights: Dict[int, Region] = {}
        self._grads: Dict[int, Region] = {}
        for layer in self.offloaded:
            weights[layer] = self.machine.host_memory.allocate(
                spec.layer_bytes, tag=f"{spec.name}.zero.w.{layer}",
                payload=self._weight_payload(layer, step=-1),
            )
            self._grads[layer] = self.machine.host_memory.allocate(
                spec.layer_bytes, tag=f"{spec.name}.zero.g.{layer}"
            )
        return weights

    @staticmethod
    def _weight_payload(layer: int, step: int) -> bytes:
        return f"w-L{layer}-s{step}".encode()[:_PAYLOAD_BYTES]

    def _label(self) -> str:
        return f"{self.config.spec.name} zero-offload"

    def _streams(self) -> List[LayerStream]:
        """One stream per step: the optimizer rewrites every weight
        buffer between steps, so no load may be issued across it."""
        order = self._step_order
        return [LayerStream(self.machine, self.runtime, self._regions, order)
                for _ in self.config.batches]

    def _after_backward(self, layer: int, step: int):
        """Swap this layer's gradient out to its host buffer."""
        grad = self._grads[layer]
        payload = f"g-L{layer}-s{step}".encode()
        self.machine.gpu.store_plaintext(grad.tag, payload)
        out = self.runtime.memcpy_d2h(
            MemoryChunk(grad.addr, self.config.spec.layer_bytes, payload, grad.tag)
        )
        yield out.api_done

    def _optimize(self, step: int, batch: FineTuneBatch):
        """Wait for the gradients, run Adam over the master weights,
        rewrite the fp16 weight buffers in place."""
        yield self.runtime.synchronize()
        optimizer_bytes = 0
        for layer in self.offloaded:
            yield self.runtime.cpu_access(self._grads[layer].addr)
            optimizer_bytes += 6 * self.config.spec.layer_bytes  # fp32 master+moments r/w
        yield self.machine.sim.timeout(optimizer_bytes / _OPTIMIZER_BANDWIDTH)
        for layer in self.offloaded:
            # The in-place update: staged weight ciphertext for this
            # layer dies here through the write fault.
            self.machine.host_memory.write(
                self._regions[layer].addr, self._weight_payload(layer, step)
            )
