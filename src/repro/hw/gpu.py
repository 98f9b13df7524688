"""GPU enclave model: device memory, copy engine, roofline compute.

The H100 enclave owns three things PipeLLM interacts with:

* **Device memory** — 80 GB; allocation accounting drives the swap
  pressure that every experiment depends on.
* **Copy engine** — the hardware unit that decrypts incoming AES-GCM
  ciphertext at line rate with the GPU-side synchronized IV (§2.2).
  We model it functionally with a real :class:`SessionEndpoint`; its
  decrypt *time* is folded into the CC DMA path (it runs at line rate
  and is never the bottleneck per Fig. 2).
* **Compute** — a roofline: compute-bound prefill/fine-tune kernels run
  at an effective FLOP rate; memory-bound decode kernels at effective
  HBM bandwidth; each layer invocation pays a fixed kernel overhead.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..crypto import AuthenticationError, EncryptedMessage, SessionEndpoint
from ..sim import Event, Simulator, SpanTracer
from .memory import MemoryChunk
from .params import HardwareParams

__all__ = ["GpuEnclave", "GpuOutOfMemory"]


class GpuOutOfMemory(MemoryError):
    """Device allocation exceeded the enclave's capacity."""


class GpuEnclave:
    """Device-side half of the confidential-computing machine model."""

    def __init__(
        self,
        sim: Simulator,
        params: HardwareParams,
        endpoint: Optional[SessionEndpoint] = None,
        lane: str = "gpu",
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        self.sim = sim
        self.params = params
        self.endpoint = endpoint  # None when CC is disabled.
        self.lane = lane  # Tracer lane; "gpu1", "gpu2", ... on multi-GPU machines.
        self.tracer = tracer  # The machine's; None records no spans.
        self.capacity = params.gpu_memory_bytes
        self.used = 0
        self._allocations: Dict[str, int] = {}
        # Functional device memory: tag -> plaintext payload.
        self._contents: Dict[str, bytes] = {}
        self.auth_failures = 0
        self.busy_until = 0.0
        self.compute_seconds = 0.0

    # -- device memory accounting -----------------------------------------

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def alloc(self, tag: str, nbytes: int) -> None:
        """Reserve ``nbytes`` of device memory under ``tag``."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self.used + nbytes > self.capacity:
            raise GpuOutOfMemory(
                f"alloc {tag}: need {nbytes}, free {self.free} of {self.capacity}"
            )
        self._allocations[tag] = self._allocations.get(tag, 0) + nbytes
        self.used += nbytes

    def free_alloc(self, tag: str) -> int:
        """Release the allocation under ``tag``; returns bytes freed."""
        nbytes = self._allocations.pop(tag, 0)
        self.used -= nbytes
        self._contents.pop(tag, None)
        return nbytes

    # -- copy engine (functional) ---------------------------------------------

    def receive_ciphertext(self, chunk: MemoryChunk, message: EncryptedMessage) -> bytes:
        """Decrypt an incoming message with the GPU's next RX IV.

        This is the hardware copy engine: any IV desynchronization
        surfaces here as :class:`AuthenticationError` — the observable
        consequence of committing a mispredicted ciphertext (§4.1).
        """
        if self.endpoint is None:
            raise RuntimeError("receive_ciphertext requires CC mode")
        try:
            plaintext = self.endpoint.decrypt_next(message)
        except AuthenticationError:
            self.auth_failures += 1
            raise
        self._contents[chunk.tag] = plaintext
        return plaintext

    def receive_plaintext(self, chunk: MemoryChunk) -> None:
        """CC-disabled path: payload lands directly in device memory."""
        self._contents[chunk.tag] = chunk.payload

    def send_ciphertext(self, chunk: MemoryChunk) -> EncryptedMessage:
        """Encrypt device data for a D2H transfer (GPU TX IV consumed).

        The copy engine encrypts at line rate; cost is folded into the
        CC DMA path, so only the functional side lives here.
        """
        if self.endpoint is None:
            raise RuntimeError("send_ciphertext requires CC mode")
        payload = self._contents.get(chunk.tag, chunk.payload)
        return self.endpoint.encrypt_next(payload, nbytes_logical=chunk.size)

    def read_plaintext(self, tag: str) -> Optional[bytes]:
        """Inspect device memory contents (tests / examples)."""
        return self._contents.get(tag)

    def store_plaintext(self, tag: str, payload: bytes) -> None:
        """Place plaintext directly in device memory (kernel output, or
        an interconnect delivery that already paid its crypto cost)."""
        self._contents[tag] = payload

    # -- compute roofline -----------------------------------------------------

    def compute_time(self, flops: float, bytes_touched: float, layers: int = 1) -> float:
        """Roofline kernel time for one launch batch."""
        gpu = self.params.gpu
        compute = flops / gpu.flops
        memory = bytes_touched / gpu.hbm_bandwidth
        return max(compute, memory) + layers * gpu.kernel_overhead

    def compute(self, flops: float, bytes_touched: float, layers: int = 1) -> Event:
        """Occupy the (serial) GPU for the roofline duration.

        The GPU executes one kernel stream; concurrent submissions
        queue, which is how memcpy-wait-induced idle gaps become
        visible end to end.
        """
        duration = self.compute_time(flops, bytes_touched, layers)
        start = max(self.sim.now, self.busy_until)
        finish = start + duration
        self.busy_until = finish
        self.compute_seconds += duration
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.record(self.lane, "compute", start, finish)
        return self.sim.timeout(finish - self.sim.now)
