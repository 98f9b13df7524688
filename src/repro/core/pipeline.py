"""The speculative-encryption pipeline (§4.3, §5).

The pipeline owns a queue of :class:`StagedEntry` objects — chunks the
predictor expects the GPU to request, already AES-GCM-encrypted under
their *predicted* IVs and parked in CVM **private** memory (§6: nothing
unvalidated ever touches shared memory).

Entries die in exactly three ways, mirroring the paper:

* a **write fault** on the source plaintext (the validator's
  MPK-based page protection fired — the ciphertext is stale);
* their predicted **IV was consumed by someone else** (a small
  transfer, an on-demand miss, or a NOP) — that IV can never be used
  again, so the ciphertext is cryptographically dead;
* an explicit **relinquish** when the runtime decides the whole
  prediction is off the rails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cc.machine import Machine
from ..crypto import EncryptedMessage
from ..hw.memory import MemoryChunk
from ..sim import Event
from ..telemetry import SpeculationEvent
from .config import PipeLLMConfig
from .predictor import PredictionTarget, SwapPredictor

__all__ = ["SpeculationPipeline", "StagedEntry"]


@dataclass
class StagedEntry:
    """One speculatively encrypted chunk waiting in private memory."""

    chunk: MemoryChunk
    iv: int
    message: EncryptedMessage
    #: Fires when the (timed) encryption of this entry completes.
    ready: Event
    valid: bool = True
    invalid_reason: str = ""
    #: Held by a suspended (deferred) request; exempt from eviction.
    reserved: bool = False
    #: Simulated time the entry was staged (telemetry span start).
    staged_at: float = 0.0

    @property
    def key(self) -> Tuple[int, int]:
        return (self.chunk.addr, self.chunk.size)

    @property
    def owner(self) -> str:
        """Page-protection owner token for this entry."""
        return f"spec:{self.iv}"


class SpeculationPipeline:
    """Prediction → encryption → staging, with IV bookkeeping."""

    def __init__(self, machine: Machine, config: PipeLLMConfig) -> None:
        if not machine.cc_enabled:
            raise ValueError("the speculation pipeline requires a CC-enabled machine")
        self.machine = machine
        self.config = config
        self._queue: List[StagedEntry] = []
        self._last_assigned_iv = -1
        #: Addresses the runtime told us not to stage right now
        #: (e.g. swap-out destinations still pending decryption).
        self.blocked_addrs: Dict[int, str] = {}
        # Statistics live on the machine's telemetry hub (always-on
        # counters); the historical attribute names below are kept as
        # thin read-only properties.
        self.telemetry = machine.telemetry
        metrics = machine.telemetry.metrics
        self._staged_total = metrics.counter("pipeline.staged_total")
        self._invalidated_by_fault = metrics.counter("pipeline.invalidated_by_fault")
        self._invalidated_by_iv_skip = metrics.counter("pipeline.invalidated_by_iv_skip")
        self._relinquish_count = metrics.counter("pipeline.relinquishes")
        self._evicted = metrics.counter("pipeline.evicted")

    # -- introspection --------------------------------------------------

    @property
    def staged_total(self) -> int:
        return self._staged_total.value

    @property
    def invalidated_by_fault(self) -> int:
        return self._invalidated_by_fault.value

    @property
    def invalidated_by_iv_skip(self) -> int:
        return self._invalidated_by_iv_skip.value

    @property
    def relinquish_count(self) -> int:
        return self._relinquish_count.value

    @property
    def evicted(self) -> int:
        return self._evicted.value

    @property
    def entries(self) -> List[StagedEntry]:
        return list(self._queue)

    @property
    def valid_entries(self) -> List[StagedEntry]:
        return [e for e in self._queue if e.valid]

    @property
    def staged_bytes(self) -> int:
        """Private-memory footprint of live speculative ciphertext."""
        return sum(e.chunk.size for e in self._queue if e.valid)

    def find(self, addr: int, size: int) -> Optional[StagedEntry]:
        """Valid staged entry exactly matching a requested transfer."""
        for entry in self._queue:
            if entry.valid and entry.chunk.addr == addr and entry.chunk.size == size:
                return entry
        return None

    def has_valid_below(self, iv: int) -> bool:
        """Is any valid entry staged with a smaller predicted IV?

        Used by the error handler to decide between *suspending* a
        request (another request in this batch may fill the IV gap —
        Fig. 6) and padding NOPs immediately.
        """
        return any(e.valid and e.iv < iv for e in self._queue)

    # -- staging ------------------------------------------------------------

    def refill(self, predictor: SwapPredictor, leeway: int) -> int:
        """Re-align the staged queue with the current predictions.

        Entries that fell out of the prediction window are evicted
        (their ciphertext would only be IV-skipped later — e.g. a
        newer LIFO swap-out now resumes before them), then missing
        predictions are staged in order, subject to the depth and
        private-memory budgets. Returns the number of entries newly
        staged.
        """
        wanted = predictor.predict_all(self.config.depth, kv_count=self.config.kv_depth)
        wanted_keys = {t.key for t in wanted}
        for entry in self._queue:
            if entry.valid and not entry.reserved and entry.key not in wanted_keys:
                self._kill(entry, "left-prediction-window")
                self._evicted.add()
        self._gc()

        live = {e.key for e in self._queue if e.valid}
        budget = self.config.depth - len(live)
        staged = 0
        for target in wanted:
            if budget <= 0:
                break
            if target.key in live or target.addr in self.blocked_addrs:
                continue
            if self.staged_bytes + target.size > self.config.max_staged_bytes:
                break  # Private staging memory budget exhausted (§6).
            if self._stage(target, leeway):
                live.add(target.key)
                staged += 1
                budget -= 1
        return staged

    def _next_iv(self, leeway: int) -> int:
        current = self.machine.cpu_endpoint.tx_iv.current
        iv = max(current + leeway, self._last_assigned_iv + 1)
        self._last_assigned_iv = iv
        return iv

    def _stage(self, target: PredictionTarget, leeway: int) -> bool:
        memory = self.machine.host_memory
        try:
            region = memory.region_at(target.addr)
        except KeyError:
            return False  # The predicted source was freed meanwhile.
        if region.size != target.size:
            return False
        plaintext = memory.read(target.addr)
        chunk = MemoryChunk(target.addr, target.size, plaintext, region.tag)
        iv = self._next_iv(leeway)
        message = self.machine.cpu_endpoint.encrypt_with_iv(
            plaintext, iv, nbytes_logical=target.size
        )
        # Newest prediction first: under LIFO resume the entry staged
        # last is needed first, so it jumps the speculative queue.
        front = target.swap_class.value == "kv_cache"
        # Every encryption worker gangs up on the chunk: model
        # offloading needs more than one to beat the PCIe rate.
        ready = self.machine.engine.submit_encrypt_parallel(target.size, front=front)
        entry = StagedEntry(chunk, iv, message, ready, staged_at=self.machine.sim.now)
        memory.protect(target.addr, target.size, owner=entry.owner, deny_write=True)
        self._queue.append(entry)
        self._staged_total.add()
        hub = self.telemetry
        if hub.enabled:
            hub.emit(SpeculationEvent(
                self.machine.sim.now, "stage", target.addr, target.size, iv
            ))
        return True

    # -- invalidation -------------------------------------------------------

    def invalidate_overlapping(self, addr: int, size: int, reason: str = "write-fault") -> int:
        """Kill entries whose plaintext range overlaps a written range."""
        killed = 0
        for entry in self._queue:
            if entry.valid and entry.chunk.overlaps(addr, size):
                self._kill(entry, reason)
                killed += 1
                if reason == "write-fault":
                    self._invalidated_by_fault.add()
        return killed

    def on_iv_consumed(self, iv: int) -> Optional[StagedEntry]:
        """The channel consumed ``iv`` for something else; the staged
        ciphertext bound to it (if any) is cryptographically dead."""
        for entry in self._queue:
            if entry.valid and entry.iv == iv:
                self._kill(entry, "iv-skipped")
                self._invalidated_by_iv_skip.add()
                return entry
        return None

    def drop_stale(self, current_iv: int) -> int:
        """Kill every entry whose predicted IV already passed."""
        killed = 0
        for entry in self._queue:
            if entry.valid and entry.iv < current_iv:
                self._kill(entry, "stale-iv")
                killed += 1
        return killed

    def relinquish(self) -> int:
        """Abandon the pipeline (§5.3 irrecoverable errors).

        Entries reserved by suspended requests are spared — they are
        already matched to an in-flight request and will commit (or
        fall back) at the batch boundary.
        """
        self._relinquish_count.add()
        hub = self.telemetry
        if hub.enabled:
            hub.emit(SpeculationEvent(self.machine.sim.now, "relinquish"))
        killed = 0
        for entry in self._queue:
            if entry.valid and not entry.reserved:
                self._kill(entry, "relinquished")
                killed += 1
        self._gc()
        return killed

    def invalidate_entry(self, entry: StagedEntry, reason: str) -> None:
        """Kill one specific staged entry (injected mispredictions)."""
        if entry.valid:
            self._kill(entry, reason)

    def pop(self, entry: StagedEntry) -> None:
        """Remove a committed entry (its ciphertext went to the wire)."""
        self.machine.host_memory.unprotect(entry.owner)
        self._queue.remove(entry)
        self._gc()
        hub = self.telemetry
        if hub.enabled:
            now = self.machine.sim.now
            # Staged lifetime as a span on the "speculation" lane.
            hub.tracer.record("speculation", "commit", entry.staged_at, now)
            hub.emit(SpeculationEvent(
                now, "commit", entry.chunk.addr, entry.chunk.size, entry.iv
            ))

    def _kill(self, entry: StagedEntry, reason: str) -> None:
        entry.valid = False
        entry.invalid_reason = reason
        self.machine.host_memory.unprotect(entry.owner)
        hub = self.telemetry
        if hub.enabled:
            now = self.machine.sim.now
            hub.tracer.record("speculation", reason, entry.staged_at, now)
            hub.emit(SpeculationEvent(
                now, "invalidate", entry.chunk.addr, entry.chunk.size,
                entry.iv, reason=reason,
            ))

    def _gc(self) -> None:
        """Drop dead entries once they can no longer be referenced."""
        self._queue = [e for e in self._queue if e.valid]
