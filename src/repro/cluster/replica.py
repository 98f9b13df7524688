"""One serving replica: a CVM+GPU machine plus its serving loop.

A :class:`Replica` owns one :class:`repro.cc.Machine` (embedded in the
cluster's shared simulator), the `DeviceRuntime` that machine serves
traffic through (PipeLLM, inline CC, or native), and a loop over the
continuous-batching core it shares with the vLLM engine
(:mod:`repro.serving.vllm.batching`) that accepts *dynamically routed*
requests from the gateway — unlike the single-machine engines, the
request set is not known up front.

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
from typing import Any, Dict, List, Optional

from ..cc import CudaContext
from ..core import PipeLLMRuntime
from ..models import LayerWork
from ..serving.vllm.batching import PAYLOAD_BYTES, ContinuousBatcher
from ..serving.vllm.scheduler import SchedulerState, SequenceGroup
from .fleet import FleetRequest
from .incarnation import Incarnation, IncarnationDead

__all__ = ["ClusterRequest", "Replica"]

#: Tenants whose prompt prefixes one replica keeps warm.
_PREFIX_CACHE_TENANTS = 16


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
class _Resident(SequenceGroup):
    """A routed request's sequence group on one replica."""

    creq: Optional[ClusterRequest] = None


class Replica(ContinuousBatcher, Incarnation):
    """One CVM+GPU serving machine behind the gateway."""

    kind = "replica"

    def __init__(self, *args, **kwargs) -> None:
        #: Set by the gateway when the replica joins the fleet.
        self.gateway = None
        self.prefix_hits = 0
        super().__init__(*args, **kwargs)

    def _boot_state(self) -> None:
        if self.system == "pipellm":
            self.runtime = PipeLLMRuntime(self.machine)
        else:
            self.runtime = CudaContext(self.machine)
        self._start_batching(self.reserve_bytes, f"r{self.replica_id}.")
        self.runtime.hint_kv_block_size(self.geometry.block_bytes)
        #: tenant -> longest prompt prefix still warm on this replica.
        self.prefix_cache: Dict[str, int] = {}

    def _orphans(self) -> List[ClusterRequest]:
        state = self.state
        orphans = [g.creq for g in state.running + state.swapped + state.waiting]
        self.state = SchedulerState()
        self.prefix_cache = {}
        return orphans

    # -- gateway-facing surface ------------------------------------------

    @property
    def outstanding(self) -> int:
        """Requests resident on this replica (the routing load signal)."""
        state = self.state
        return len(state.waiting) + len(state.running) + len(state.swapped)

    def submit(self, creq: ClusterRequest) -> None:
        """Accept one routed request into the local admission queue."""
        if not self.alive:
            raise IncarnationDead(f"{self.incarnation} is down")
        creq.state = "dispatched"
        self.state.waiting.append(_Resident(creq.request, creq=creq))
        self._kick()
        creq.replica_history.append(self.replica_id)

    # -- serving loop ----------------------------------------------------

    def _loop(self, epoch: int):
        while self.alive and self.epoch == epoch:
            if not (yield from self.step()):
                self._reject_unservable()
                if not (self.state.waiting or self.state.swapped):
                    yield self._idle()

    def _reject_unservable(self) -> None:
        """Bounce work that can never fit this replica's KV budget.

        Runs only when nothing is running (all blocks reclaimable), so
        an admission/resume failure here means the group exceeds the
        *total* budget (less the resume watermark, for a swapped group)
        — waiting cannot help. The gateway re-routes or sheds it.
        """
        state = self.state
        if state.swapped and not self._can_resume(state.swapped[-1]):
            group = state.swapped.pop()
            self.blocks.free_owner(group.owner)
            if group.swap_region is not None:
                self.machine.host_memory.free(group.swap_region)
                group.swap_region = None
            self.gateway.on_reject(group.creq, self, "kv-budget")
        elif state.waiting:
            if not self.blocks.can_allocate(state.waiting[0].blocks_held(self.geometry)):
                self.gateway.on_reject(state.waiting.pop(0).creq, self, "kv-budget")

    # -- what the replica declares to the batching core ------------------

    def _pick_victim(self) -> _Resident:
        # The newest arrival, whether or not it has decoded yet.
        return max(
            self.state.running,
            key=lambda g: (g.request.arrival_time, g.request.request_id),
        )

    def _swap_payload(self, tag: str) -> bytes:
        return b"\x03" * PAYLOAD_BYTES

    def _prefill_tokens(self, group: _Resident) -> int:
        # A tenant whose prompt prefix is still warm skips prefill.
        creq = group.creq
        creq.prefix_hit = self.prefix_cache.get(creq.tenant, 0) >= creq.request.prompt_len
        self.prefix_hits += creq.prefix_hit
        return 0 if creq.prefix_hit else creq.request.prompt_len

    def _mark(self, group: _Resident, where: str) -> None:
        group.creq.state = where

    def _trace(self, group: _Resident) -> Any:
        return group.creq.trace_attempt

    def _compute_step(self, work: LayerWork):
        return self._compute(
            work, "step", lambda: [g.creq.trace_attempt for g in self.state.running],
        )

    def _on_token(self, group: _Resident) -> None:
        creq = group.creq
        self.gateway.on_token(creq, self, group.generated)
        if group.done:
            self._remember_prefix(creq)
            self.completed += 1
            self.gateway.on_complete(creq, self)

    def _remember_prefix(self, creq: ClusterRequest) -> None:
        prompt = creq.request.prompt_len
        self.prefix_cache[creq.tenant] = max(
            self.prefix_cache.get(creq.tenant, 0), prompt
        )
        while len(self.prefix_cache) > _PREFIX_CACHE_TENANTS:
            self.prefix_cache.pop(next(iter(self.prefix_cache)))
