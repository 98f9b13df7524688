"""Multi-GPU parallel inference over the encrypted interconnect.

The deployment shape where PipeLLM's bottleneck is most severe:
under GPU confidential computing, peer-to-peer transfers are
forbidden and every inter-GPU hop bounces through CPU AES-GCM
(:mod:`repro.hw.interconnect`). This package layers on top of it:

* :class:`Communicator` — send / ring all-reduce / ring all-gather
  with deterministic schedules;
* :class:`LinkSpeculator` — the speculative-link loop shared with KV
  migration (:class:`repro.core.speculate.StreamSpeculator`), per
  source GPU, parking speculation under storms;
* :class:`TensorParallelEngine` — Megatron-style sharded decode, two
  all-reduces per layer (the link-bound regime);
* :class:`PipelineParallelEngine` — GPipe/1F1B microbatching (the
  compute-bound contrast).

Run the campaign with ``python -m repro parallel``.
"""

from .collectives import Communicator, ParallelResult, decode_ints, encode_ints
from .pp import PipelineParallelEngine
from .speculate import LinkSpeculator
from .tp import TensorParallelEngine

__all__ = [
    "Communicator",
    "LinkSpeculator",
    "ParallelResult",
    "PipelineParallelEngine",
    "TensorParallelEngine",
    "decode_ints",
    "encode_ints",
]
