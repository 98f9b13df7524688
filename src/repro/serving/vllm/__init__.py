"""vLLM-like serving substrate: paged KV cache + request-wise swapping."""

from .batching import ContinuousBatcher
from .block_manager import BlockAllocationError, BlockManager
from .engine import VllmConfig, VllmEngine, VllmResult
from .scheduler import SchedulerState, SequenceGroup

__all__ = [
    "BlockAllocationError",
    "BlockManager",
    "ContinuousBatcher",
    "SchedulerState",
    "SequenceGroup",
    "VllmConfig",
    "VllmEngine",
    "VllmResult",
]
