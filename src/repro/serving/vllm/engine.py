"""vLLM-like serving engine with KV-cache swapping.

Reproduces the substrate of the paper's case study 2 (§3) and the
Fig. 3b / Fig. 8 / Fig. 9 / Fig. 10 experiments: model weights stay
resident; memory pressure from many concurrent requests is handled by
request-wise KV swapping (preempt → swap out → resume LIFO). Every
iteration also moves small control transfers (token ids in, sampled
tokens out) — the traffic that perturbs PipeLLM's IV stream and
exercises NOP padding and the adaptive leeway.

The engine runs against any :class:`DeviceRuntime`; the normalized
latency metric (s per output token, averaged over requests) matches
the paper's serving plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ...cc.api import DeviceRuntime, TransferHandle
from ...cc.machine import Machine
from ...hw.memory import MemoryChunk
from ...models import KvGeometry, LayerWork, ModelSpec
from ...sim import SeededRng, mean, percentile
from ...workloads import Request
from ..stream import Engine
from .block_manager import BlockManager
from .scheduler import GroupState, SchedulerState, SequenceGroup

__all__ = ["VllmConfig", "VllmEngine", "VllmResult"]

#: Functional payload bytes for KV swap chunks and control transfers.
_PAYLOAD_BYTES = 16


@dataclass
class VllmConfig:
    """One vLLM serving test case."""

    spec: ModelSpec
    requests: List[Request]
    block_size: int = 16
    #: GPU bytes kept free for activations and workspace.
    reserve_bytes: int = 4 << 30
    max_num_seqs: int = 256
    #: Resume hysteresis (fraction of total blocks that must be free
    #: beyond the group's own need) — vLLM's watermark, which prevents
    #: swap-in/swap-out thrashing at the pressure boundary.
    resume_watermark: float = 0.02
    seed: int = 1
    #: Safety horizon (simulated seconds) after which the run aborts.
    max_sim_time: float = 36_000.0


@dataclass
class VllmResult:
    """Latency summary of one run."""

    normalized_latencies: List[float]
    elapsed: float
    swap_out_count: int
    swap_in_count: int
    finished: int

    @property
    def mean_normalized_latency(self) -> float:
        """Seconds per generated token, averaged over requests."""
        return mean(self.normalized_latencies)

    def latency_percentile(self, q: float) -> float:
        """Normalized-latency percentile across requests (q in [0,100])."""
        return percentile(self.normalized_latencies, q)


class VllmEngine(Engine[VllmResult]):
    """Continuous batching + request-wise KV swapping."""

    def __init__(self, machine: Machine, runtime: DeviceRuntime, config: VllmConfig) -> None:
        if not config.requests:
            raise ValueError("config.requests must not be empty")
        super().__init__(machine, runtime, config)
        self.geometry = KvGeometry(config.spec, block_size=config.block_size)
        self._rng = SeededRng(config.seed)

        total_blocks = self.geometry.gpu_block_budget(
            machine.params.gpu_memory_bytes, reserved_bytes=config.reserve_bytes
        )
        if total_blocks <= 0:
            raise ValueError("model leaves no GPU room for KV cache")
        self.blocks = BlockManager(total_blocks)
        machine.gpu.alloc("weights", config.spec.total_bytes)
        machine.gpu.alloc("kv-pool", total_blocks * self.geometry.block_bytes)

        self.state = SchedulerState()
        self._future = sorted(
            (SequenceGroup(request=r) for r in config.requests),
            key=lambda g: g.request.arrival_time,
        )
        # Reusable host buffers for the per-iteration control traffic.
        self._token_in = machine.host_memory.allocate(4096, "tokens.in", b"\x01" * 8)
        self._token_out = machine.host_memory.allocate(4096, "tokens.out", b"\x02" * 8)

        self.swap_out_count = 0

    # -- engine loop ---------------------------------------------------------------

    def _main(self):
        sim = self.machine.sim
        start = sim.now
        while not self._all_done():
            if sim.now - start > self.config.max_sim_time:
                break
            self._admit_arrivals()
            step_start = sim.now
            made_progress = yield from self._iteration()
            if made_progress:
                # One scheduler step on the "serving" telemetry lane.
                sim.tracer.record("serving.vllm", "step", step_start, sim.now)
            if not made_progress:
                next_arrival = self._next_arrival_time()
                if next_arrival is None:
                    break  # Nothing running and nothing coming.
                yield sim.timeout(max(next_arrival - sim.now, 1e-6))
        self._finalize(sim.now - start)

    def _iteration(self):
        """One scheduler step; returns False when there was no work."""
        state = self.state
        geometry = self.geometry

        swapped_in = self._schedule_swap_ins()
        prefill_groups = self._schedule_admissions()
        if not state.running:
            return False

        # Block growth for this decode step; preempt until it fits.
        yield from self._make_room()

        # Newly admitted prompts go up as small transfers (decode-step
        # inputs live on the GPU — only fresh prompt tokens cross the
        # bus host→device).
        for group in prefill_groups:
            self.runtime.memcpy_h2d(
                MemoryChunk(self._token_in.addr, max(4 * group.request.prompt_len, _PAYLOAD_BYTES),
                            b"\x01" * _PAYLOAD_BYTES, "tokens.in")
            )
        # The batch boundary: everything must be on-device before the
        # step's kernels run (cudaDeviceSynchronize in the paper).
        yield self.runtime.synchronize()
        for group, region in swapped_in:
            # The group may have been re-preempted meanwhile (and own a
            # NEW region); free exactly the region this swap-in consumed.
            self.machine.host_memory.free(region)
            if group.swap_region is region:
                group.swap_region = None

        work = self._step_work(prefill_groups)
        yield self.machine.gpu.compute(work.flops, work.bytes_touched, layers=work.layers)

        # Sampled tokens come back as a small transfer (not waited on).
        self.runtime.memcpy_d2h(
            MemoryChunk(self._token_out.addr, max(4 * state.running_seqs, _PAYLOAD_BYTES),
                        b"\x02" * _PAYLOAD_BYTES, "tokens.out")
        )

        self._advance_generation()
        return True

    # -- scheduling phases ---------------------------------------------------------

    def _admit_arrivals(self) -> None:
        now = self.machine.sim.now
        while self._future and self._future[0].request.arrival_time <= now:
            self.state.waiting.append(self._future.pop(0))

    def _next_arrival_time(self) -> Optional[float]:
        if self._future:
            return self._future[0].request.arrival_time
        return None

    def _schedule_swap_ins(self):
        """Resume swapped groups LIFO while their blocks fit.

        Returns ``(group, region)`` pairs; the regions are freed after
        the batch's synchronization barrier lands the data on-device.
        """
        resumed = []
        state = self.state
        watermark = int(self.blocks.total_blocks * self.config.resume_watermark)
        while state.swapped:
            group = state.swapped[-1]
            needed = group.blocks_held(self.geometry)
            if not self.blocks.can_allocate(needed + watermark):
                break
            if state.running_seqs + group.request.parallel_n > self.config.max_num_seqs:
                break
            state.swapped.pop()
            self.blocks.allocate(group.owner, needed)
            region = group.swap_region
            self._issue_swap_in(group)
            group.state = GroupState.RUNNING
            state.running.append(group)
            resumed.append((group, region))
        return resumed

    def _schedule_admissions(self) -> List[SequenceGroup]:
        """FCFS admission of waiting groups (prefill this iteration)."""
        admitted: List[SequenceGroup] = []
        state = self.state
        while state.waiting and not state.swapped:
            group = state.waiting[0]
            needed = group.blocks_held(self.geometry)
            if not self.blocks.can_allocate(needed):
                break
            if state.running_seqs + group.request.parallel_n > self.config.max_num_seqs:
                break
            state.waiting.pop(0)
            self.blocks.allocate(group.owner, needed)
            group.state = GroupState.RUNNING
            group.first_schedule_time = self.machine.sim.now
            state.running.append(group)
            admitted.append(group)
        return admitted

    def _make_room(self):
        """Preempt (swap out) until this step's block growth fits."""
        state = self.state
        while True:
            growth = sum(g.step_block_growth(self.geometry) for g in state.running)
            if self.blocks.can_allocate(growth) or len(state.running) <= 1:
                break
            victim = state.pick_victim()
            if victim is None:
                break
            yield from self._swap_out(victim)
        # Grant the growth now; the compute step will fill the blocks.
        for group in state.running:
            self.blocks.allocate(group.owner, group.step_block_growth(self.geometry))

    # -- swapping -----------------------------------------------------------------------

    def _swap_out(self, group: SequenceGroup):
        state = self.state
        state.running.remove(group)
        nbytes = group.kv_bytes(self.geometry)
        group.swap_epoch += 1
        tag = f"kv.{group.owner}.e{group.swap_epoch}"
        payload = self._rng.fork(tag).bytes(_PAYLOAD_BYTES)
        region = self.machine.host_memory.allocate(nbytes, tag=tag)
        group.swap_region = region
        # Seed the GPU-side functional contents so the D2H carries
        # deterministic bytes that the later swap-in must reproduce.
        self.machine.gpu.store_plaintext(tag, payload)
        handle = self.runtime.memcpy_d2h(MemoryChunk(region.addr, nbytes, payload, tag))
        yield handle.api_done
        self.blocks.free_owner(group.owner)
        group.state = GroupState.SWAPPED
        state.swapped.append(group)
        self.swap_out_count += 1

    def _issue_swap_in(self, group: SequenceGroup) -> TransferHandle:
        region = group.swap_region
        if region is None:
            raise RuntimeError(f"{group.owner} swapped without a region")
        chunk = self.machine.host_memory.chunk_at(region.addr)
        handle = self.runtime.memcpy_h2d(chunk)
        self.swap_in_count += 1
        return handle

    # -- compute & progress ------------------------------------------------------------------

    def _step_work(self, prefill_groups: List[SequenceGroup]):
        prefill_tokens = sum(g.request.prompt_len for g in prefill_groups)
        decode_groups = [g for g in self.state.running if g not in prefill_groups]
        decode_seqs = sum(g.request.parallel_n for g in decode_groups)
        flops = 0.0
        bytes_touched = 0.0
        if prefill_tokens:
            w = self.cost.prefill(prefill_tokens)
            flops += w.flops
            bytes_touched += w.bytes_touched
        if decode_seqs:
            ctx = mean([float(g.context_len()) for g in decode_groups])
            w = self.cost.decode_step(decode_seqs, ctx)
            flops += w.flops
            bytes_touched += w.bytes_touched
        return LayerWork(flops, bytes_touched, layers=self.config.spec.n_layers)

    def _advance_generation(self) -> None:
        now = self.machine.sim.now
        still_running: List[SequenceGroup] = []
        for group in self.state.running:
            group.generated += 1
            if group.done:
                group.state = GroupState.FINISHED
                group.finish_time = now
                self.blocks.free_owner(group.owner)
                self.state.finished.append(group)
            else:
                still_running.append(group)
        self.state.running = still_running

    # -- termination ------------------------------------------------------------------------------

    def _all_done(self) -> bool:
        state = self.state
        return not (self._future or state.waiting or state.running or state.swapped)

    def _finalize(self, elapsed: float) -> None:
        latencies = [g.normalized_latency() for g in self.state.finished]
        self.result = VllmResult(
            normalized_latencies=latencies,
            elapsed=elapsed,
            swap_out_count=self.swap_out_count,
            swap_in_count=self.swap_in_count,
            finished=len(self.state.finished),
        )
