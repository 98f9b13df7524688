"""The continuous-batching core under the vLLM engine and the replica.

:meth:`ContinuousBatcher.step` runs one scheduler iteration as seven
phases in one fixed order:

1. resume swapped groups LIFO while they fit above the watermark;
2. admit waiting groups FCFS, only while nothing is swapped;
3. preempt (swap out) until the step's block growth fits, then grant it;
4. send the admitted prompts' tokens host→device, synchronize, and only
   then free the host regions the resumed groups came back from;
5. compute the step;
6. send the sampled tokens device→host (not waited on);
7. advance every running group by one token.

This order produces the request-wise LIFO swap pattern of Figure 5b
that PipeLLM's predictor speculates on.

The bookkeeping is incremental: the block manager keeps its used count
and phase 3 its growth total, less each victim's share, so a step costs
O(changes), not rescans of the batch.

A serving loop mixes the core in and calls :meth:`_start_batching`
once its machine is up. It drives :meth:`step` from its own loop and
declares only its own differences by overriding the hooks below.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from ...hw.memory import MemoryChunk, Region
from ...models import LayerWork
from .block_manager import BlockManager
from .scheduler import SchedulerState, SequenceGroup

__all__ = ["ContinuousBatcher", "MAX_NUM_SEQS", "PAYLOAD_BYTES", "RESUME_WATERMARK"]

#: Functional payload bytes for KV swap chunks and control transfers.
PAYLOAD_BYTES = 16

#: Resume hysteresis: the fraction of all blocks that must stay free
#: beyond a resumed group's own need (vLLM's watermark, which prevents
#: swap-in/swap-out thrashing at the pressure boundary).
RESUME_WATERMARK = 0.02

#: Most sequences one batch runs (vLLM's ``max_num_seqs``).
MAX_NUM_SEQS = 256


class ContinuousBatcher:
    """Continuous batching with request-wise KV swapping.

    The host class provides ``machine``, ``runtime``, ``geometry`` and
    ``cost``; :meth:`_start_batching` adds the queues (``state``), the
    block manager and the token buffers.
    """

    #: Class defaults, so a loop that re-boots its machine keeps counting.
    swap_out_count = 0
    swap_in_count = 0

    def _start_batching(self, reserve_bytes: int, tag_prefix: str = "") -> None:
        """Claim the GPU for the model and open empty queues;
        ``tag_prefix`` names this loop's token buffers and KV swap
        regions."""
        total_blocks = self.geometry.gpu_block_budget(
            self.machine.params.gpu_memory_bytes, reserved_bytes=reserve_bytes
        )
        if total_blocks <= 0:
            raise ValueError("model leaves no GPU room for KV cache")
        self.blocks = BlockManager(total_blocks)
        self.machine.gpu.alloc("weights", self.geometry.spec.total_bytes)
        self.machine.gpu.alloc("kv-pool", total_blocks * self.geometry.block_bytes)
        self.state = SchedulerState()
        self._tag_prefix = tag_prefix
        # Reusable host buffers for the per-iteration control traffic.
        self._token_in = self.machine.host_memory.allocate(
            4096, f"{tag_prefix}tokens.in", b"\x01" * 8
        )
        self._token_out = self.machine.host_memory.allocate(
            4096, f"{tag_prefix}tokens.out", b"\x02" * 8
        )

    # -- the iteration ---------------------------------------------------

    def step(self):
        """One scheduler iteration; returns False when nothing runs."""
        state = self.state
        resumed = self._resume()
        admitted = self._admit()
        if not state.running:
            return False

        yield from self._make_room()

        # Fresh prompt tokens cross the bus (decode inputs already live
        # on the GPU); a prefix hit still costs one small transfer.
        for group in admitted:
            with self.machine.telemetry.bound_trace(self._trace(group)):
                self.runtime.memcpy_h2d(MemoryChunk(
                    self._token_in.addr, max(4 * group.prefill_tokens, PAYLOAD_BYTES),
                    b"\x01" * PAYLOAD_BYTES, f"{self._tag_prefix}tokens.in",
                ))
        # The batch boundary: everything must be on-device before the
        # step's kernels run (cudaDeviceSynchronize in the paper).
        yield self.runtime.synchronize()
        for group, region in resumed:
            # The group may have been re-preempted meanwhile (and own a
            # NEW region); free exactly the region this swap-in consumed.
            self.machine.host_memory.free(region)
            if group.swap_region is region:
                group.swap_region = None

        decode = state.running
        if admitted:
            decode = [g for g in decode if g not in admitted or g.prefill_tokens == 0]
        yield from self._compute_step(self.cost.step_work(
            sum(g.prefill_tokens for g in admitted), decode))

        self.runtime.memcpy_d2h(MemoryChunk(
            self._token_out.addr, max(4 * state.running_seqs, PAYLOAD_BYTES),
            b"\x02" * PAYLOAD_BYTES, f"{self._tag_prefix}tokens.out",
        ))
        self._advance()
        return True

    # -- phases ----------------------------------------------------------

    def _resume(self) -> List[Tuple[SequenceGroup, Region]]:
        """Swap groups back in LIFO; returns ``(group, region)`` pairs
        whose host regions the step frees after its synchronize."""
        state = self.state
        resumed = []
        while state.swapped:
            group = state.swapped[-1]
            if not self._can_resume(group):
                break
            if state.running_seqs + group.request.parallel_n > MAX_NUM_SEQS:
                break
            state.swapped.pop()
            self.blocks.allocate(group.owner, group.blocks_held(self.geometry))
            region = group.swap_region
            if region is None:
                raise RuntimeError(f"{group.owner} swapped without a region")
            with self.machine.telemetry.bound_trace(self._trace(group)):
                self.runtime.memcpy_h2d(self.machine.host_memory.chunk_at(region.addr))
            self.swap_in_count += 1
            self._mark(group, "running")
            state.running.append(group)
            resumed.append((group, region))
        return resumed

    def _can_resume(self, group: SequenceGroup) -> bool:
        """Whether swapped ``group`` fits with the watermark left free."""
        watermark = int(self.blocks.total_blocks * RESUME_WATERMARK)
        return self.blocks.can_allocate(group.blocks_held(self.geometry) + watermark)

    def _admit(self) -> List[SequenceGroup]:
        """FCFS admission (prefill this step), blocked while any group
        is swapped out."""
        state = self.state
        admitted: List[SequenceGroup] = []
        while state.waiting and not state.swapped:
            group = state.waiting[0]
            needed = group.blocks_held(self.geometry)
            if not self.blocks.can_allocate(needed):
                break
            if state.running_seqs + group.request.parallel_n > MAX_NUM_SEQS:
                break
            state.waiting.pop(0)
            self.blocks.allocate(group.owner, needed)
            group.prefill_tokens = self._prefill_tokens(group)
            self._mark(group, "running")
            state.running.append(group)
            admitted.append(group)
        return admitted

    def _make_room(self):
        """Swap out victims until this step's block growth fits (one
        running group always stays), then grant the growth."""
        state, geometry = self.state, self.geometry
        # The running groups' growth, less each victim's as it leaves.
        self._step_growth = sum(g.step_block_growth(geometry) for g in state.running)
        while len(state.running) > 1 and not self.blocks.can_allocate(self._step_growth):
            victim = self._pick_victim()
            self._step_growth -= victim.step_block_growth(geometry)
            yield from self._swap_out(victim)
        if self._step_growth:
            for group in state.running:
                growth = group.step_block_growth(geometry)
                if growth:
                    self.blocks.allocate(group.owner, growth)

    def _swap_out(self, group: SequenceGroup):
        self.state.running.remove(group)
        nbytes = group.kv_bytes(self.geometry)
        group.swap_epoch += 1
        tag = f"{self._tag_prefix}kv.{group.owner}.e{group.swap_epoch}"
        payload = self._swap_payload(tag)
        region = self.machine.host_memory.allocate(nbytes, tag=tag)
        group.swap_region = region
        # Seed the GPU-side functional contents so the D2H carries
        # deterministic bytes that the later swap-in must reproduce.
        self.machine.gpu.store_plaintext(tag, payload)
        with self.machine.telemetry.bound_trace(self._trace(group)):
            handle = self.runtime.memcpy_d2h(MemoryChunk(region.addr, nbytes, payload, tag))
        yield handle.api_done
        self.blocks.free_owner(group.owner)
        self._mark(group, "swapped")
        self.state.swapped.append(group)
        self.swap_out_count += 1

    def _advance(self) -> None:
        now = self.machine.sim.now
        on_token = self._on_token
        still_running: List[SequenceGroup] = []
        for group in self.state.running:
            group.generated += 1
            if group.done:
                group.finish_time = now
                self.blocks.free_owner(group.owner)
            else:
                still_running.append(group)
            on_token(group)
        self.state.running = still_running

    # -- hooks: what each loop declares ----------------------------------

    def _pick_victim(self) -> SequenceGroup:
        """The running group to preempt (vLLM's rule by default)."""
        return self.state.pick_victim()

    def _swap_payload(self, tag: str) -> bytes:
        """Functional bytes a swap-out under ``tag`` carries."""
        raise NotImplementedError

    def _prefill_tokens(self, group: SequenceGroup) -> int:
        """Prompt tokens ``group`` prefills at admission."""
        return group.request.prompt_len

    def _mark(self, group: SequenceGroup, where: str) -> None:
        """``group`` became ``"running"`` or ``"swapped"``."""

    def _trace(self, group: SequenceGroup) -> Any:
        """Causal context ``group``'s transfers bind (None: none)."""
        return None

    def _compute_step(self, work: LayerWork):
        """Run the step's kernels."""
        yield self.machine.gpu.compute(work.flops, work.bytes_touched, layers=work.layers)

    def _on_token(self, group: SequenceGroup) -> None:
        """``group`` decoded one token; ``group.done`` once it finished."""
        if group.done:
            self.state.finished.append(group)
