"""Disaggregated serving workers: prefill pools and decode pools.

Disaggregation splits the two phases of LLM inference onto dedicated
machines. :class:`PrefillWorker` runs prompt prefills back to back —
one compute-dense burst per request, no batch to disturb — then hands
the finished KV cache to the migration fabric. :class:`DecodeWorker`
runs a vLLM-style continuous-batching decode loop over requests whose
KV has already *arrived*; it never computes a prefill (except in the
monolithic-baseline topology, where it must, inline, serialized with
its own decode steps — exactly the head-of-line blocking disaggregation
exists to remove).

Both worker kinds are :class:`~repro.cluster.incarnation.Incarnation`
subclasses: a crash orphans resident work back to the scheduler and
loses the retained KV copies with the rest of the incarnation's state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from ..cluster.fleet import FleetRequest
from ..cluster.incarnation import Incarnation
from ..workloads import Request

__all__ = ["DisaggRequest", "PrefillWorker", "DecodeWorker"]


@dataclass
class DisaggRequest(FleetRequest):
    """One request as it moves through the disaggregated pipeline."""

    #: KV bytes produced by prefill (what migration must move).
    kv_bytes: int = 0
    #: "queued" | "prefilling" | "migrating" | "holding" | "decoding"
    #: | "done" | "shed"
    state: str = "queued"
    prefill_done_time: float = math.nan
    #: When the KV cache became resident on the decode worker.
    kv_ready_time: float = math.nan
    #: Migrations resumed from a retained prefill copy (no recompute).
    resumes: int = 0
    #: Worker labels this request touched, in order.
    history: List[str] = field(default_factory=list)


class PrefillWorker(Incarnation):
    """One dedicated prompt-prefill machine.

    Prefills run one request at a time, back to back — the compute
    burst is dense enough that batching prompts buys nothing and only
    delays the head of the queue. The finished KV cache is *retained*
    (a host-side copy inside the CVM) until the scheduler releases it
    on decode completion, which is what makes migration *resume* —
    re-shipping the copy after a decode-side crash, with no prefill
    recompute — possible at all.
    """

    kind = "prefill"
    #: Set by the scheduler when the worker joins its pool.
    scheduler = None

    def _boot_state(self) -> None:
        self._queue: List[DisaggRequest] = []
        self._active: Optional[DisaggRequest] = None
        #: rid -> retained KV bytes (incarnation-local: a crash loses
        #: the copies, forcing replay).
        self._retained: dict = {}

    def _orphans(self) -> List[DisaggRequest]:
        orphans = list(self._queue)
        if self._active is not None:
            orphans.insert(0, self._active)
        self._queue = []
        self._active = None
        self._retained = {}
        return orphans

    # -- scheduler-facing surface ----------------------------------------

    @property
    def outstanding(self) -> int:
        """Prefills resident here (the placement load signal)."""
        return len(self._queue) + (1 if self._active is not None else 0)

    def submit(self, creq: DisaggRequest) -> None:
        self._enqueue(creq, "prefilling")
        creq.history.append(self.label)

    def has_kv(self, rid: int) -> bool:
        """Is this request's KV copy still retained here?"""
        return self.alive and rid in self._retained

    def release(self, rid: int) -> None:
        """Drop the retained copy (decode finished or replayed away)."""
        self._retained.pop(rid, None)

    # -- serving loop ----------------------------------------------------

    def _loop(self, epoch: int):
        while self.alive and self.epoch == epoch:
            if not self._queue:
                yield self._idle()
                continue
            creq = self._queue.pop(0)
            self._active = creq
            yield from self._compute(
                self.cost.step_work(creq.request.prompt_len * creq.request.parallel_n, ()),
                "prefill", lambda: [creq.trace],
            )
            self._retained[creq.rid] = creq.kv_bytes
            creq.prefill_done_time = self.sim.now
            self._active = None
            self.completed += 1
            # Prefill samples the first token itself — TTFT is prefill
            # completion; migration gates the *second* token onward.
            self.scheduler.on_token(creq, self, 1)
            self.scheduler.on_prefill_done(creq, self)


@dataclass
class _Decoding:
    """A request resident in one decode worker's batch."""

    creq: DisaggRequest
    #: KV bytes reserved for the full prompt+output horizon.
    reserved: int
    #: Prompt tokens still to prefill inline (monolithic mode only).
    prefill_tokens: int = 0
    generated: int = 0

    @property
    def done(self) -> bool:
        return self.generated >= self.creq.request.output_len

    @property
    def request(self) -> Request:
        return self.creq.request

    def context_len(self) -> int:
        return self.creq.request.prompt_len + self.generated


class DecodeWorker(Incarnation):
    """One continuous-batching decode machine.

    Requests enter through :meth:`submit_ready` (their KV migrated in —
    the disaggregated path) or :meth:`submit_local` (monolithic
    baseline: the prompt must be prefilled *here*, inside the decode
    loop, stretching the step every other resident request is waiting
    on). Admission reserves KV blocks for the full prompt+output
    horizon; when the budget is exhausted, arrivals hold in the local
    queue until completions free room — the decode-side half of
    hold-until-KV-arrival.
    """

    kind = "decode"
    #: Set by the scheduler when the worker joins its pool.
    scheduler = None

    def _boot_state(self) -> None:
        self._queue: List[DisaggRequest] = []
        self.running: List[_Decoding] = []
        total_blocks = self.geometry.gpu_block_budget(
            self.params.gpu_memory_bytes, reserved_bytes=self.reserve_bytes
        )
        if total_blocks <= 0:
            raise ValueError("model leaves no GPU room for KV cache")
        self.budget_bytes = total_blocks * self.geometry.block_bytes
        self.resident_bytes = 0

    def _orphans(self) -> List[DisaggRequest]:
        orphans = [d.creq for d in self.running] + list(self._queue)
        self._queue = []
        self.running = []
        self.resident_bytes = 0
        return orphans

    # -- scheduler-facing surface ----------------------------------------

    @property
    def outstanding(self) -> int:
        return len(self._queue) + len(self.running)

    def kv_reservation(self, creq: DisaggRequest) -> int:
        request = creq.request
        return self.geometry.bytes_for_tokens(
            request.prompt_len + request.output_len
        ) * request.parallel_n

    def submit_ready(self, creq: DisaggRequest) -> None:
        """Admit a request whose KV cache has arrived (disagg path)."""
        self._enqueue(creq, "holding")
        creq.history.append(self.label)

    def submit_local(self, creq: DisaggRequest) -> None:
        """Accept a request that must prefill *here* (monolithic)."""
        self.submit_ready(creq)
        creq.kv_ready_time = self.sim.now  # KV is born local.

    # -- serving loop ----------------------------------------------------

    def _loop(self, epoch: int):
        while self.alive and self.epoch == epoch:
            admitted = self._admit()
            if not self.running:
                yield self._idle()
                continue
            # Monolithic inline prefills ride inside the batch step —
            # every resident request's next token waits on them.
            work = self.cost.step_work(
                sum(d.prefill_tokens * d.creq.request.parallel_n for d in admitted),
                [d for d in self.running if d.prefill_tokens == 0 or d not in admitted],
            )
            yield from self._compute(work, "step", lambda: [d.creq.trace for d in self.running])
            self._advance()

    def _admit(self) -> List[_Decoding]:
        admitted: List[_Decoding] = []
        while self._queue:
            creq = self._queue[0]
            reserved = self.kv_reservation(creq)
            fits = self.resident_bytes + reserved <= self.budget_bytes
            if not fits and self.running:
                break  # Hold until completions free KV room.
            if not fits:
                # Nothing running and it still cannot fit: the request
                # exceeds this worker's entire KV budget — shed it.
                self._queue.pop(0)
                self.scheduler.on_reject(creq, self, "kv-budget")
                continue
            self._queue.pop(0)
            self.resident_bytes += reserved
            prefill = (
                creq.request.prompt_len if math.isnan(creq.prefill_done_time)
                else 0
            )
            if (creq.trace is not None
                    and not math.isnan(creq.kv_ready_time)
                    and self.sim.now > creq.kv_ready_time):
                creq.trace.collector.add(
                    creq.trace, "kv-hold", "hold", self.incarnation,
                    creq.kv_ready_time, self.sim.now,
                )
            creq.state = "decoding"
            # A migrated request's first token already left the prefill
            # worker; decode owes the remaining output_len - 1.
            generated = 1 if (
                prefill == 0 and not math.isnan(creq.first_token_time)
            ) else 0
            admitted.append(_Decoding(
                creq, reserved, prefill_tokens=prefill, generated=generated
            ))
            self.running.append(admitted[-1])
        return admitted

    def _advance(self) -> None:
        now = self.sim.now
        still: List[_Decoding] = []
        for decoding in self.running:
            creq = decoding.creq
            if decoding.prefill_tokens:
                decoding.prefill_tokens = 0
                creq.prefill_done_time = now
            decoding.generated += 1
            self.scheduler.on_token(creq, self, decoding.generated)
            if decoding.done:
                self.resident_bytes -= decoding.reserved
                self.completed += 1
                self.scheduler.on_complete(creq, self)
            else:
                still.append(decoding)
        self.running = still
