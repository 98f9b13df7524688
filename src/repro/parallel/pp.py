"""Pipeline-parallel inference over the encrypted interconnect.

GPipe-style, forward only: GPU *i* owns a contiguous slice of the
model's layers, microbatches stream forward through the stages, and
each stage-to-stage handoff ships one activation tensor across the
fabric (P2P with CC off, the bounce bridge with CC on). Stages are
simulator processes coupled by :class:`~repro.sim.resources.Store`
queues, so the pipeline's natural overlap (stage 2 computing
microbatch 1 while stage 1 computes microbatch 2) falls out of the
event engine, and the activation hops contend for links and crypto
pools exactly like any other fabric traffic.

Pipeline parallelism moves far fewer bytes per FLOP than tensor
parallelism (one activation per microbatch per boundary vs two
all-reduces per layer), so its collapse under CC is mild — the
campaign shows the contrast between the two regimes.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

from ..models.specs import ModelSpec
from ..models.transformer import LayerWork, TransformerCostModel
from ..sim import Store
from .collectives import ParallelResult, encode_ints

__all__ = ["PipelineParallelEngine"]


class PipelineParallelEngine:
    """Microbatched pipeline over N stage GPUs."""

    def __init__(
        self,
        machine,
        spec: ModelSpec,
        microbatches: int = 4,
        microbatch_tokens: int = 256,
        label: str = "",
    ) -> None:
        if microbatches < 1:
            raise ValueError("microbatches must be >= 1")
        self.machine = machine
        self.spec = spec
        self.microbatches = microbatches
        self.microbatch_tokens = microbatch_tokens
        self.label = label or ("cc" if machine.cc_enabled else "nocc")
        self.cost = TransformerCostModel(spec)
        self.n = len(machine.gpus)
        # Contiguous layer slices; earlier stages absorb the remainder.
        base, extra = divmod(spec.n_layers, self.n)
        self.stage_layers = [base + (1 if i < extra else 0) for i in range(self.n)]
        #: One microbatch's activation tensor at a stage boundary.
        self.activation_bytes = int(
            microbatch_tokens * spec.hidden * spec.dtype_bytes
        )
        self._digest = hashlib.sha256()
        self.tokens_processed = 0

    def _forward_work(self, stage: int) -> LayerWork:
        layers = self.stage_layers[stage]
        per_layer = self.cost.prefill_layer(self.microbatch_tokens)
        return LayerWork(per_layer.flops * layers, per_layer.bytes_touched * layers,
                         layers=layers)

    def _ship(self, src: int, dst: int, mb: int):
        """One activation handoff; returns the fabric event."""
        # The trailing 1 marks a forward hop; the delivered payload is
        # part of the checksum.
        payload = encode_ints([mb + 1, src + 1, dst + 1, 1])
        return self.machine.interconnect.transfer(
            src, dst, payload, nbytes=self.activation_bytes,
            tag=f"pp.fwd.mb{mb}.s{dst}", collective="pp.fwd",
        )

    def _stage(self, stage: int, fwd_in: Store, fwd_out: Optional[Store]):
        gpu = self.machine.gpus[stage]
        work = self._forward_work(stage)
        for _ in range(self.microbatches):
            mb = yield fwd_in.get()
            yield gpu.compute(work.flops, work.bytes_touched, layers=work.layers)
            if fwd_out is not None:
                delivered = yield self._ship(stage, stage + 1, mb)
                self._digest.update(b"pp:fwd:" + delivered)
                fwd_out.put(mb)
            else:
                # Last stage: the microbatch's tokens are done.
                self._digest.update(f"pp:out:{mb}:{stage}".encode())
                self.tokens_processed += self.microbatch_tokens

    def run_inference(self) -> ParallelResult:
        """Stream every microbatch forward through the pipeline."""
        machine = self.machine
        sim = machine.sim
        start = sim.now
        queues: List[Store] = [Store(sim) for _ in range(self.n)]
        for mb in range(self.microbatches):
            queues[0].put(mb)
        for stage in range(self.n):
            fwd_out = queues[stage + 1] if stage + 1 < self.n else None
            sim.process(self._stage(stage, queues[stage], fwd_out))
        machine.run()
        fabric = machine.interconnect
        return ParallelResult(
            mode="pp",
            system=self.label,
            n_gpus=self.n,
            tokens=self.tokens_processed,
            elapsed_s=sim.now - start,
            checksum=self._digest.hexdigest(),
            hops=fabric.hops if fabric else 0,
            p2p_bytes=fabric.p2p_bytes if fabric else 0,
            bounce_bytes=fabric.bounce_bytes if fabric else 0,
            spec_hit_rate=fabric.hit_rate() if fabric else 0.0,
        )
