"""One serving replica: a CVM+GPU machine plus its serving loop.

A :class:`Replica` owns one :class:`repro.cc.Machine` (embedded in the
cluster's shared simulator), the `DeviceRuntime` that machine serves
traffic through (PipeLLM, inline CC, or native), and a vLLM-style
continuous-batching loop that accepts *dynamically routed* requests
from the gateway — unlike the single-machine engines, the request set
is not known up front.

The loop reproduces the serving behaviour the cluster experiments
depend on:

* **continuous batching** — admitted requests decode in lock-step,
  one token per step, with prompt tokens and sampled tokens crossing
  the (encrypted) bus as control transfers every step;
* **KV-pressure swapping** — block growth beyond the replica's budget
  preempts the most recent group (request-wise swap-out over the CC
  channel, LIFO resume), exactly the traffic PipeLLM pipelines;
* **prefix KV reuse** — a tenant whose prompt prefix is still cached
  on this replica skips prefill compute and bytes, which is the win
  the gateway's affinity policy exists to harvest;
* **crash / recover** — the :class:`~repro.cluster.incarnation.
  Incarnation` lifecycle; the orphans go back to the gateway for
  failover, and the recovered replica rejoins with an empty cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..cc import CudaContext
from ..core import PipeLLMRuntime
from ..hw.memory import MemoryChunk
from ..models import LayerWork
from ..serving.vllm.block_manager import BlockManager
from ..serving.vllm.scheduler import GroupState, SequenceGroup
from ..workloads import Request
from .fleet import FleetRequest
from .incarnation import Incarnation

__all__ = ["ClusterRequest", "Replica"]

#: Functional payload bytes for control and KV transfers.
_PAYLOAD_BYTES = 16

#: Tenants whose prompt prefixes one replica keeps warm.
_PREFIX_CACHE_TENANTS = 16

#: Resume hysteresis, mirroring vLLM's watermark.
_RESUME_WATERMARK = 0.02


@dataclass
class ClusterRequest(FleetRequest):
    """One tenant request as it moves through the gateway and replicas."""

    payload: bytes = b""
    #: "queued" | "dispatched" | "running" | "swapped" | "done" | "shed"
    state: str = "queued"
    dispatch_time: float = math.nan
    #: Replica ids this request touched, in order.
    replica_history: List[int] = field(default_factory=list)
    prefix_hit: bool = False
    #: The open attempt span the gateway manages across failovers.
    trace_attempt: Optional[Any] = None


@dataclass
class _Served:
    """A request resident on one replica, with its scheduling state."""

    creq: ClusterRequest
    group: SequenceGroup
    #: Prompt tokens that must actually be prefilled (0 = prefix hit).
    prefill_tokens: int = 0

    @property
    def request(self) -> Request:
        return self.group.request

    def context_len(self) -> int:
        return self.group.context_len()


class Replica(Incarnation):
    """One CVM+GPU serving machine behind the gateway."""

    kind = "replica"

    def __init__(self, *args, **kwargs) -> None:
        #: Set by the gateway when the replica joins the fleet.
        self.gateway = None
        self.prefix_hits = 0
        self.swap_out_count = 0
        self.swap_in_count = 0
        super().__init__(*args, **kwargs)

    def _boot_state(self) -> None:
        if self.system == "pipellm":
            self.runtime = PipeLLMRuntime(self.machine)
        else:
            self.runtime = CudaContext(self.machine)
        total_blocks = self.geometry.gpu_block_budget(
            self.params.gpu_memory_bytes, reserved_bytes=self.reserve_bytes
        )
        if total_blocks <= 0:
            raise ValueError("model leaves no GPU room for KV cache")
        self.blocks = BlockManager(total_blocks)
        self.machine.gpu.alloc("weights", self.spec.total_bytes)
        self.machine.gpu.alloc("kv-pool", total_blocks * self.geometry.block_bytes)
        self.runtime.hint_kv_block_size(self.geometry.block_bytes)

        self._token_in = self.machine.host_memory.allocate(
            4096, f"r{self.replica_id}.tokens.in", b"\x01" * 8
        )
        self._token_out = self.machine.host_memory.allocate(
            4096, f"r{self.replica_id}.tokens.out", b"\x02" * 8
        )

        self._queue: List[ClusterRequest] = []
        self.running: List[_Served] = []
        #: LIFO stack of preempted groups.
        self.swapped: List[_Served] = []
        #: tenant -> longest prompt prefix still warm on this replica.
        self.prefix_cache: Dict[str, int] = {}

    def _orphans(self) -> List[ClusterRequest]:
        orphans = [s.creq for s in self.running + self.swapped] + list(self._queue)
        self._queue = []
        self.running = []
        self.swapped = []
        self.prefix_cache = {}
        return orphans

    # -- gateway-facing surface ------------------------------------------

    @property
    def outstanding(self) -> int:
        """Requests resident on this replica (the routing load signal)."""
        return len(self._queue) + len(self.running) + len(self.swapped)

    def submit(self, creq: ClusterRequest) -> None:
        """Accept one routed request into the local admission queue."""
        self._enqueue(creq, "dispatched")
        creq.replica_history.append(self.replica_id)

    # -- serving loop ----------------------------------------------------

    def _loop(self, epoch: int):
        while self.alive and self.epoch == epoch:
            resumed = self._resume_swapped()
            admitted = self._admit()
            if not self.running:
                self._reject_unservable()
                if not (self._queue or self.swapped):
                    yield self._idle()
                continue

            # Preempt (swap out) until this step's block growth fits,
            # then grant the growth.
            yield from self._make_room()

            # Prompt tokens for fresh prefills cross the bus; prefix
            # hits still cost one small control transfer.
            for served in admitted:
                size = max(4 * served.prefill_tokens, _PAYLOAD_BYTES)
                with self.machine.telemetry.bound_trace(served.creq.trace_attempt):
                    self.runtime.memcpy_h2d(MemoryChunk(
                        self._token_in.addr, size, b"\x01" * _PAYLOAD_BYTES,
                        f"r{self.replica_id}.tokens.in",
                    ))
            yield self.runtime.synchronize()
            for served, region in resumed:
                self.machine.host_memory.free(region)
                if served.group.swap_region is region:
                    served.group.swap_region = None

            yield from self._compute(
                self._step_work(admitted), f"cluster.replica-{self.replica_id}",
                "step", lambda: [s.creq.trace_attempt for s in self.running],
            )

            # Sampled tokens return as a small transfer (not waited on).
            seqs = sum(s.group.request.parallel_n for s in self.running)
            self.runtime.memcpy_d2h(MemoryChunk(
                self._token_out.addr, max(4 * seqs, _PAYLOAD_BYTES),
                b"\x02" * _PAYLOAD_BYTES, f"r{self.replica_id}.tokens.out",
            ))
            self._advance()

    # -- scheduling phases -----------------------------------------------

    def _resume_swapped(self) -> List[Tuple[_Served, object]]:
        resumed = []
        watermark = int(self.blocks.total_blocks * _RESUME_WATERMARK)
        while self.swapped:
            served = self.swapped[-1]
            needed = served.group.blocks_held(self.geometry)
            if not self.blocks.can_allocate(needed + watermark):
                break
            self.swapped.pop()
            self.blocks.allocate(served.group.owner, needed)
            region = served.group.swap_region
            if region is None:
                raise RuntimeError(f"{served.group.owner} swapped without a region")
            with self.machine.telemetry.bound_trace(served.creq.trace_attempt):
                self.runtime.memcpy_h2d(self.machine.host_memory.chunk_at(region.addr))
            self.swap_in_count += 1
            served.group.state = GroupState.RUNNING
            served.creq.state = "running"
            self.running.append(served)
            resumed.append((served, region))
        return resumed

    def _admit(self) -> List[_Served]:
        admitted: List[_Served] = []
        while self._queue and not self.swapped:
            creq = self._queue[0]
            group = SequenceGroup(request=creq.request)
            if not self.blocks.can_allocate(group.blocks_held(self.geometry)):
                break
            self._queue.pop(0)
            self.blocks.allocate(group.owner, group.blocks_held(self.geometry))
            group.state = GroupState.RUNNING
            group.first_schedule_time = self.sim.now
            cached = self.prefix_cache.get(creq.tenant, 0)
            prefill = 0 if cached >= creq.request.prompt_len else creq.request.prompt_len
            creq.prefix_hit = prefill == 0
            if creq.prefix_hit:
                self.prefix_hits += 1
            creq.state = "running"
            served = _Served(creq, group, prefill_tokens=prefill)
            self.running.append(served)
            admitted.append(served)
        return admitted

    def _reject_unservable(self) -> None:
        """Bounce work that can never fit this replica's KV budget.

        Runs only when nothing is running (all blocks reclaimable), so
        an admission/resume failure here means the group exceeds the
        *total* budget — waiting cannot help. The gateway re-routes or
        sheds it.
        """
        def too_big(group: SequenceGroup) -> bool:
            return group.blocks_held(self.geometry) > self.blocks.free_blocks

        if self.swapped and too_big(self.swapped[-1].group):
            served = self.swapped.pop()
            self.blocks.free_owner(served.group.owner)
            if served.group.swap_region is not None:
                self.machine.host_memory.free(served.group.swap_region)
                served.group.swap_region = None
            self.gateway.on_reject(served.creq, self, "kv-budget")
        elif self._queue and too_big(SequenceGroup(request=self._queue[0].request)):
            creq = self._queue.pop(0)
            self.gateway.on_reject(creq, self, "kv-budget")

    def _make_room(self):
        while True:
            growth = sum(s.group.step_block_growth(self.geometry) for s in self.running)
            if self.blocks.can_allocate(growth) or len(self.running) <= 1:
                break
            victim = max(
                self.running,
                key=lambda s: (s.group.request.arrival_time, s.creq.rid),
            )
            yield from self._swap_out(victim)
        for served in self.running:
            self.blocks.allocate(
                served.group.owner, served.group.step_block_growth(self.geometry)
            )

    def _swap_out(self, served: _Served):
        self.running.remove(served)
        group = served.group
        nbytes = group.kv_bytes(self.geometry)
        group.swap_epoch += 1
        tag = f"r{self.replica_id}.kv.{group.owner}.e{group.swap_epoch}"
        payload = b"\x03" * _PAYLOAD_BYTES
        region = self.machine.host_memory.allocate(nbytes, tag=tag)
        group.swap_region = region
        self.machine.gpu._contents[tag] = payload
        with self.machine.telemetry.bound_trace(served.creq.trace_attempt):
            handle = self.runtime.memcpy_d2h(MemoryChunk(region.addr, nbytes, payload, tag))
        yield handle.api_done
        self.blocks.free_owner(group.owner)
        group.state = GroupState.SWAPPED
        served.creq.state = "swapped"
        self.swapped.append(served)
        self.swap_out_count += 1

    # -- compute & progress ----------------------------------------------

    def _step_work(self, admitted: List[_Served]) -> LayerWork:
        # Prefill tokens count once per request, not per parallel sample.
        return super()._step_work(
            sum(s.prefill_tokens for s in admitted),
            [s for s in self.running if s not in admitted or s.prefill_tokens == 0],
        )

    def _advance(self) -> None:
        now = self.sim.now
        still: List[_Served] = []
        for served in self.running:
            group = served.group
            group.generated += 1
            self.gateway.on_token(served.creq, self, group.generated)
            if group.done:
                group.state = GroupState.FINISHED
                group.finish_time = now
                self.blocks.free_owner(group.owner)
                self._remember_prefix(served.creq)
                self.completed += 1
                self.gateway.on_complete(served.creq, self)
            else:
                still.append(served)
        self.running = still

    def _remember_prefix(self, creq: ClusterRequest) -> None:
        prompt = creq.request.prompt_len
        self.prefix_cache[creq.tenant] = max(
            self.prefix_cache.get(creq.tenant, 0), prompt
        )
        while len(self.prefix_cache) > _PREFIX_CACHE_TENANTS:
            self.prefix_cache.pop(next(iter(self.prefix_cache)))
