"""Transfer classification (§4.2 observations, §5.1).

PipeLLM sees only low-level memcpy metadata. It separates *swaps*
(worth pipelining) from *small control traffic* (tokens, logits,
launch parameters — encrypted on demand) with two signals the paper
identifies:

1. swap transfers are large (usually >128 KB) while other traffic is
   small (usually <8 KB);
2. with the model known (§4.2 assumes it is), the exact byte sizes of
   a weight layer and of a KV-cache block are computable a priori, so
   a transfer whose size matches one of them can be attributed to the
   corresponding traffic class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Set

__all__ = ["SwapClass", "TransferClass", "TransferClassifier"]

#: Transfers below this size are control traffic, never pipelined.
DEFAULT_SWAP_THRESHOLD = 128 * 1024


class TransferClass(enum.Enum):
    """What a single memcpy is, as far as PipeLLM can tell."""

    SMALL = "small"          # Control traffic: never pipelined.
    WEIGHTS = "weights"      # Model offloading swap.
    KV_CACHE = "kv_cache"    # KV-cache swap.
    SWAP_OTHER = "swap"      # Large, but matches no known size.


class SwapClass(enum.Enum):
    """The two prediction streams PipeLLM maintains (§5.1)."""

    WEIGHTS = "weights"
    KV_CACHE = "kv_cache"


@dataclass
class TransferClassifier:
    """Size-based classifier with optional model-derived size hints."""

    swap_threshold: int = DEFAULT_SWAP_THRESHOLD
    weight_sizes: Set[int] = field(default_factory=set)
    kv_block_sizes: Set[int] = field(default_factory=set)

    def register_weight_size(self, nbytes: int) -> None:
        """Record the byte size of one offloadable weight chunk."""
        if nbytes <= 0:
            raise ValueError("weight chunk size must be positive")
        self.weight_sizes.add(nbytes)

    def register_kv_block_size(self, nbytes: int) -> None:
        """Record the byte size of one KV-cache swap unit."""
        if nbytes <= 0:
            raise ValueError("KV block size must be positive")
        self.kv_block_sizes.add(nbytes)

    def classify(self, size: int) -> TransferClass:
        """Classify one transfer from its byte size alone."""
        if size < self.swap_threshold:
            return TransferClass.SMALL
        if size in self.weight_sizes:
            return TransferClass.WEIGHTS
        if size in self.kv_block_sizes:
            return TransferClass.KV_CACHE
        return TransferClass.SWAP_OTHER

    def is_swap(self, size: int) -> bool:
        return self.classify(size) is not TransferClass.SMALL

    def swap_class(self, size: int) -> Optional[SwapClass]:
        """Which prediction stream a swap belongs to.

        Unmatched large transfers default to the KV stream: KV block
        geometry varies with runtime batch shape, whereas weight chunk
        sizes are exact, so an unknown large size is far more likely
        intermediate data than weights.
        """
        cls = self.classify(size)
        if cls is TransferClass.SMALL:
            return None
        if cls is TransferClass.WEIGHTS:
            return SwapClass.WEIGHTS
        return SwapClass.KV_CACHE
