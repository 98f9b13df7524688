"""Paged KV-cache block accounting (vLLM-style).

Tracks how many fixed-size KV blocks each sequence group holds on the
GPU. Only counts matter for the swap behaviour (vLLM's block *tables*
map logical to physical blocks; the pressure dynamics depend purely on
the counts), so the manager is a checked counting allocator with an
owner index and a running total of the blocks in use.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["BlockManager", "BlockAllocationError"]


class BlockAllocationError(RuntimeError):
    """An allocation was attempted that the manager cannot satisfy."""


class BlockManager:
    """Counting allocator over a fixed GPU block budget."""

    def __init__(self, total_blocks: int) -> None:
        if total_blocks < 0:
            raise ValueError("total_blocks must be non-negative")
        self.total_blocks = total_blocks
        self._allocations: Dict[str, int] = {}
        self.used_blocks = 0  # the sum of ``_allocations``, kept as they change
        self.peak_used = 0

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - self.used_blocks

    def can_allocate(self, n_blocks: int) -> bool:
        return n_blocks <= self.free_blocks

    def allocate(self, owner: str, n_blocks: int) -> None:
        """Grant ``n_blocks`` more blocks to ``owner``."""
        if n_blocks < 0:
            raise ValueError("n_blocks must be non-negative")
        if not self.can_allocate(n_blocks):
            raise BlockAllocationError(
                f"{owner}: need {n_blocks}, free {self.free_blocks}"
            )
        self._allocations[owner] = self._allocations.get(owner, 0) + n_blocks
        self.used_blocks += n_blocks
        self.peak_used = max(self.peak_used, self.used_blocks)

    def free_owner(self, owner: str) -> int:
        """Release everything ``owner`` holds; returns blocks freed."""
        freed = self._allocations.pop(owner, 0)
        self.used_blocks -= freed
        return freed
