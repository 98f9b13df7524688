"""CVM shared-memory DMA staging buffers.

§6 of the paper: CUDA normally zero-copies ciphertext straight into
CVM *shared* memory, but PipeLLM must not expose unvalidated
speculative ciphertext there. It therefore stages predictions in
*private* memory and copies them into a small ring of fixed-size
shared DMA buffers only after validation; since memcpy is faster than
PCIe, a handful of buffers suffices.

:class:`DmaStaging` models that ring: a bounded pool of buffer slots
plus a memcpy-bandwidth pipe. Its occupancy statistics let tests
verify the paper's claim that shared-memory usage stays small.
"""

from __future__ import annotations

from typing import Generator

from ..sim import BandwidthPipe, Event, Resource, Simulator

__all__ = ["DmaStaging"]

#: Private→shared memcpy bandwidth (B/s); DDR copy, faster than PCIe.
MEMCPY_BANDWIDTH = 200e9


class DmaStaging:
    """Fixed ring of shared-memory bounce buffers."""

    def __init__(
        self,
        sim: Simulator,
        buffer_bytes: int = 16 * 1024 * 1024,
        buffers: int = 4,
        memcpy_bandwidth: float = MEMCPY_BANDWIDTH,
    ) -> None:
        if buffer_bytes <= 0 or buffers <= 0:
            raise ValueError("buffer_bytes and buffers must be positive")
        self.sim = sim
        self.buffer_bytes = buffer_bytes
        self.buffers = buffers
        self._slots = Resource(sim, capacity=buffers)
        self._memcpy = BandwidthPipe(sim, memcpy_bandwidth, name="staging.memcpy")
        self.max_outstanding = 0
        self.stage_count = 0

    def stage(self, nbytes: int) -> Generator[Event, None, None]:
        """Copy validated ciphertext into shared memory, slot by slot.

        A process-style helper: acquires one slot per ``buffer_bytes``
        piece, pays the memcpy time, and releases the slot immediately
        (the DMA pipeline consumes it downstream — the copy itself is
        what must not sit on the critical path).
        """
        remaining = nbytes
        while remaining > 0:
            piece = min(remaining, self.buffer_bytes)
            yield self._slots.acquire()
            self.max_outstanding = max(self.max_outstanding, self._slots.in_use)
            try:
                yield self._memcpy.transfer(piece)
            finally:
                self._slots.release()
            self.stage_count += 1
            remaining -= piece
