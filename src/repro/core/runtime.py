"""The user-transparent PipeLLM runtime (§5, Figure 4).

:class:`PipeLLMRuntime` implements the same :class:`DeviceRuntime`
surface as the baselines, so serving engines run on it unmodified —
the paper's user-transparency requirement. Internally it is the
composition of:

* a :class:`TransferClassifier` separating swaps from control traffic,
* a :class:`SwapPredictor` racing pattern hypotheses over the trace,
* a :class:`SpeculationPipeline` pre-encrypting predicted chunks under
  predicted IVs into private memory,
* a :class:`Validator` deciding HIT/FUTURE/STALE/MISS per request,
* an error handler (re-ordering via deferral, NOP padding, pipeline
  relinquishing — §5.3),
* an asynchronous decryptor for swap-outs (§5.4).

The functional crypto layer is kept in lock-step with the timing
model; any IV-accounting bug in this file would surface as a real GCM
authentication failure in the GPU copy-engine model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cc.api import D2H, H2D, DeviceRuntime, TransferHandle
from ..cc.machine import Machine
from ..crypto import AuthenticationError, EncryptedMessage, tamper_tag
from ..faults.policies import DegradationController, FaultPolicy, PipelineMode
from ..hw.memory import MemoryChunk, PageFault
from ..sim import Event
from ..telemetry import FaultEvent, IvEvent, RecoveryEvent, SpeculationEvent
from ..telemetry.hub import RequestRecord
from .classify import TransferClassifier
from .config import PipeLLMConfig
from .pipeline import SpeculationPipeline, StagedEntry
from .predictor import SwapPredictor
from .validator import ValidationOutcome, Validator

__all__ = ["PipeLLMRuntime"]

#: Consecutive validation misses (with a live pipeline) that trigger a
#: full relinquish: the prediction is evidently off the rails.
_RELINQUISH_AFTER_MISSES = 3

#: How long a suspended request waits for a batch boundary before the
#: watchdog resolves it with NOP padding (seconds). Long enough for
#: same-instant batch mates to arrive, short against any transfer.
_DEFER_GRACE = 50e-6

#: Upper bound for the adaptive leeway. NOPs are cheap (~15 µs)
#: but every pad NOP consumes an IV that may skip a sibling staged
#: entry, so unbounded leeway self-poisons the pipeline; 64 covers
#: realistic bursts of interleaved small transfers (§5.1, §5.3).
_MAX_LEEWAY = 64

#: CPU overhead of the validation fast path per request (s).
_VALIDATION_OVERHEAD = 1.0e-6


@dataclass
class _PendingDecrypt:
    """A swap-out whose plaintext has not landed yet (§5.4)."""

    addr: int
    size: int
    plaintext: bytes
    ready: Event
    owner: str


class PipeLLMRuntime(DeviceRuntime):
    """Speculative pipelined encryption over a CC-enabled machine."""

    def __init__(
        self,
        machine: Machine,
        config: Optional[PipeLLMConfig] = None,
    ) -> None:
        if not machine.cc_enabled:
            raise ValueError("PipeLLM requires a CC-enabled machine")
        super().__init__(machine)
        self.params = machine.params
        self.config = config or PipeLLMConfig()
        self.classifier = TransferClassifier()
        self.predictor = SwapPredictor(self.classifier, sabotage=self.config.sabotage)
        self.pipeline = SpeculationPipeline(machine, self.config)
        #: The machine-level fault injector (None on clean runs).
        self.faults = machine.faults
        self.validator = Validator(self.pipeline, faults=machine.faults)
        #: Survival policies: recovery retry budget, optional request
        #: timeout, degradation thresholds.
        self.fault_policy = self.config.fault_policy or FaultPolicy()
        #: SPECULATIVE / DEGRADED / PROBING state machine (§5.3's
        #: relinquish generalized into a closed control loop).
        self.fault_controller = DegradationController(
            self.fault_policy, clock=lambda: self.sim.now
        )
        self.fault_controller.on_transition(self._on_mode_change)
        machine.host_memory.on_fault(self._on_fault)
        machine.host_memory.on_free(self._on_free)

        # Wire-order chain: commits hit the PCIe link in IV order.
        self._wire_tail: Event = self.sim.event()
        self._wire_tail.succeed()
        # Requests suspended until the batch boundary (Fig. 6).
        self._deferred: List[Tuple[TransferHandle, StagedEntry, Optional[RequestRecord]]] = []
        self._pending_decrypts: Dict[int, _PendingDecrypt] = {}
        self.telemetry = machine.telemetry

        # Adaptive IV leeway (§5.1). Two signals: an EMA of small
        # transfers per swap (the floor), and a multiplicative-increase
        # value driven by stale deaths — over-predicting an IV costs a
        # few NOPs, under-predicting costs a full re-encryption, so the
        # controller errs high aggressively and decays slowly.
        self._leeway_ema = float(self.config.leeway)
        self._leeway_value = float(self.config.leeway)
        self._small_since_swap = 0
        self._consecutive_misses = 0

        # Statistics surfaced by stats() live on the telemetry hub as
        # always-on counters; the historical attribute names remain
        # available as read-only properties below.
        metrics = machine.telemetry.metrics
        self._nops_sent = metrics.counter("runtime.nops_sent")
        self._ondemand_encryptions = metrics.counter("runtime.ondemand_encryptions")
        self._small_transfers = metrics.counter("runtime.small_transfers")
        self._sync_decrypts = metrics.counter("runtime.sync_decrypts")
        self._async_decrypts = metrics.counter("runtime.async_decrypts")
        self._deferred_total = metrics.counter("runtime.deferred")
        self._auth_recoveries = metrics.counter("runtime.auth_recoveries")
        self._timeouts = metrics.counter("runtime.timeouts")
        self._mode_switches = metrics.counter("runtime.mode_switches")
        self._degraded_commits = metrics.counter("runtime.degraded_commits")

    @property
    def nops_sent(self) -> int:
        return self._nops_sent.value

    @property
    def ondemand_encryptions(self) -> int:
        return self._ondemand_encryptions.value

    @property
    def small_transfers(self) -> int:
        return self._small_transfers.value

    @property
    def sync_decrypts(self) -> int:
        return self._sync_decrypts.value

    @property
    def async_decrypts(self) -> int:
        return self._async_decrypts.value

    @property
    def deferred_total(self) -> int:
        return self._deferred_total.value

    @property
    def auth_recoveries(self) -> int:
        return self._auth_recoveries.value

    @property
    def timeouts(self) -> int:
        return self._timeouts.value

    @property
    def mode_switches(self) -> int:
        return self._mode_switches.value

    # -- model hints (§4.2: "We assume LLM models are known") ----------------

    def hint_weight_chunk_size(self, nbytes: int) -> None:
        """Register the exact byte size of an offloadable weight chunk."""
        self.classifier.register_weight_size(nbytes)

    def hint_kv_block_size(self, nbytes: int) -> None:
        """Register the exact byte size of a KV-cache swap unit."""
        self.classifier.register_kv_block_size(nbytes)

    # -- host → device ----------------------------------------------------------

    def memcpy_h2d(self, chunk: MemoryChunk) -> TransferHandle:
        handle = TransferHandle(chunk, H2D, self.sim.event(), self.sim.event())
        self._track(handle.complete)
        record = self._telemetry_request(handle)

        if not self.classifier.is_swap(chunk.size):
            self._small_transfers.add()
            self._small_since_swap += 1
            if record is not None:
                record.kind = "control"
            self._commit_ondemand(handle, chunk, parallel=False, blocking_api=True,
                                  record=record)
            # Small transfers advance the IV past staged predictions;
            # proactively re-encrypt anything that went stale (off the
            # critical path — only the engine queue pays).
            self._refresh_pipeline()
            return handle

        self.predictor.observe_swap_in(chunk.addr, chunk.size)
        self._note_swap_arrival()
        if self.faults is not None and self.faults.desync_iv():
            self._inject_desync()
        self.fault_controller.poll()
        if not self.fault_controller.speculation_enabled:
            # Degraded mode (§5.3 escalated): non-speculative in-order
            # encryption — immune to mispredictions by construction.
            # The predictor keeps observing so speculation can resume
            # warm once the controller probes its way back.
            self._degraded_commits.add()
            if record is not None:
                record.kind = "swap"
                record.outcome = "degraded"
            self._commit_ondemand(handle, chunk, parallel=True, blocking_api=True,
                                  record=record)
            if record is not None:
                record.strategy = "degraded"
            self._watch_request(handle, record)
            return handle
        current = self.machine.cpu_endpoint.tx_iv.current
        validation = self.validator.validate(chunk.addr, chunk.size, current)
        # Controller evidence, sampled now but fed only after the
        # commit below — an observation can flip the mode, and the
        # transition's relinquish must not kill the entry mid-commit.
        # A miss against a live pipeline (or a forced kill) is real
        # evidence the speculation is wrong; cold-start misses with
        # nothing staged are not.
        if validation.usable:
            evidence: Optional[bool] = True
        elif validation.injected or self.pipeline.valid_entries:
            evidence = False
        else:
            evidence = None
        if record is not None:
            record.kind = "swap"
            swap_class = self.classifier.swap_class(chunk.size)
            record.swap_class = swap_class.value if swap_class else ""
            record.outcome = validation.outcome.value
            if validation.entry is not None:
                record.staged_iv = validation.entry.iv
            self.telemetry.emit(SpeculationEvent(
                self.sim.now, "validate", chunk.addr, chunk.size,
                validation.entry.iv if validation.entry else -1,
                reason=validation.outcome.value,
                request_id=record.request_id,
            ))

        if validation.outcome is ValidationOutcome.HIT_NOW:
            self._consecutive_misses = 0
            self._fast_api_return(handle)
            self._commit_staged(handle, validation.entry, record=record)
        elif validation.outcome is ValidationOutcome.HIT_FUTURE:
            self._consecutive_misses = 0
            self._fast_api_return(handle)
            if self.pipeline.has_valid_below(validation.entry.iv):
                # Re-ordering (§5.3): another request in this batch may
                # arrive for the lower IV; suspend until the barrier.
                validation.entry.reserved = True
                self._deferred.append((handle, validation.entry, record))
                self._deferred_total.add()
                if record is not None:
                    record.deferred = True
                    self.telemetry.emit(SpeculationEvent(
                        self.sim.now, "defer", chunk.addr, chunk.size,
                        validation.entry.iv, request_id=record.request_id,
                    ))
                # Applications that wait on the transfer itself (not a
                # device barrier) must not deadlock: resolve shortly
                # after if no synchronize() picked the request up.
                self.sim.process(self._deferred_watchdog())
            else:
                nops = self._pad_nops_to(validation.entry.iv)
                if record is not None:
                    record.nops_padded = nops
                self._commit_staged(handle, validation.entry, record=record)
        else:
            if validation.outcome is ValidationOutcome.STALE:
                # Order evidence against the current hypothesis.
                self.pipeline.drop_stale(current)
                self._bump_leeway()
                self._count_miss()
            self._commit_ondemand(handle, chunk, parallel=True, blocking_api=True,
                                  record=record)

        if evidence is not None:
            self.fault_controller.observe(evidence)
        self._watch_request(handle, record)
        self._refresh_pipeline()
        return handle

    def _refresh_pipeline(self) -> None:
        """Drop IV-stale entries and restage from current predictions."""
        killed = self.pipeline.drop_stale(self.machine.cpu_endpoint.tx_iv.current)
        if killed:
            self._bump_leeway()
        if self.fault_controller.speculation_enabled:
            self.pipeline.refill(self.predictor, self._leeway())

    def _bump_leeway(self) -> None:
        """An entry died of IV staleness: the leeway was too small.

        Multiplicative increase — an over-long leeway costs microsecond
        NOPs at commit time, an under-long one costs a full chunk
        re-encryption, so the controller errs high."""
        self._leeway_value = min(
            float(_MAX_LEEWAY),
            max(2.0 * self._leeway_value, self._leeway_ema + 8.0),
        )

    # -- device → host -------------------------------------------------------------

    def memcpy_d2h(self, chunk: MemoryChunk) -> TransferHandle:
        handle = TransferHandle(chunk, D2H, self.sim.event(), self.sim.event())
        self._track(handle.complete)
        record = self._telemetry_request(handle)

        # Functional layer runs eagerly in call order on both sides, so
        # the D2H IV streams stay aligned regardless of timing overlap.
        message = self.machine.gpu.send_ciphertext(chunk)
        plaintext = self.machine.cpu_endpoint.decrypt_next(message)

        # The transfer will overwrite [addr, addr+size): any staged
        # ciphertext reading from that range is stale the moment the
        # data lands — the same page-protection fault a CPU write would
        # raise (the DMA landing is a write like any other).
        self.pipeline.invalidate_overlapping(chunk.addr, chunk.size, reason="write-fault")

        is_swap = self.classifier.is_swap(chunk.size)
        if is_swap:
            self.predictor.observe_swap_out(chunk.addr, chunk.size)
        if record is not None:
            record.kind = "swap-out" if is_swap else "control"
            record.strategy = (
                "async-decrypt" if is_swap and self.config.async_decrypt
                else "sync-decrypt"
            )

        if is_swap and self.config.async_decrypt:
            # A newer swap-out to the same destination supersedes any
            # pending decrypt there: its plaintext would be overwritten
            # anyway, so release its waiters and protection now.
            stale = self._pending_decrypts.pop(chunk.addr, None)
            if stale is not None:
                self.machine.host_memory.unprotect(stale.owner)
                if not stale.ready.triggered:
                    stale.ready.succeed()
            owner = f"dec:{chunk.addr}"
            self.machine.host_memory.protect(
                chunk.addr, chunk.size, owner=owner, deny_read=True, deny_write=True
            )
            pending = _PendingDecrypt(chunk.addr, chunk.size, plaintext, self.sim.event(), owner)
            self._pending_decrypts[chunk.addr] = pending
            self.pipeline.blocked_addrs[chunk.addr] = "pending-decrypt"
            self.sim.process(self._timed_d2h_async(handle, chunk, pending, record=record))
        else:
            self.sim.process(self._timed_d2h_sync(handle, chunk, plaintext, record=record))

        if is_swap and self.fault_controller.speculation_enabled:
            self.pipeline.refill(self.predictor, self._leeway())
        return handle

    # -- synchronization (batch boundary) ----------------------------------------

    def synchronize(self) -> Event:
        done = self.sim.event()
        self.sim.process(self._sync_proc(done))
        return done

    def _sync_proc(self, done: Event):
        self._resolve_deferred()
        yield DeviceRuntime.synchronize(self)
        done.succeed()

    def _deferred_watchdog(self):
        yield self.sim.timeout(_DEFER_GRACE)
        self._resolve_deferred()

    def _resolve_deferred(self) -> None:
        """Commit every suspended request, padding IV gaps with NOPs.

        Runs at the batch boundary (§5.3 / Fig. 6) or from the
        watchdog when the application never issues one.
        """
        deferred, self._deferred = self._deferred, []
        for handle, entry, record in sorted(deferred, key=lambda item: item[1].iv):
            current = self.machine.cpu_endpoint.tx_iv.current
            if not entry.valid or entry.iv < current:
                # Invalidated (write fault / IV skipped) while waiting.
                self._count_miss()
                self._commit_ondemand(handle, handle.chunk, parallel=True,
                                      blocking_api=False, record=record)
                continue
            nops = self._pad_nops_to(entry.iv)
            if record is not None:
                record.nops_padded += nops
                self.telemetry.emit(SpeculationEvent(
                    self.sim.now, "resume", entry.chunk.addr, entry.chunk.size,
                    entry.iv, request_id=record.request_id,
                ))
            self._commit_staged(handle, entry, record=record)
        if deferred:
            self._refresh_pipeline()

    # -- CPU-side access to swapped-out data (§5.4) ----------------------------------

    def cpu_access(self, addr: int) -> Event:
        """Event the CPU must wait on before touching ``addr``'s data.

        Already-decrypted (or never-async) regions return a triggered
        event. This is the timing twin of the usage-before-decryption
        page fault; the functional twin is :meth:`_on_fault`.
        """
        pending = self._pending_decrypts.get(addr)
        if pending is None:
            event = self.sim.event()
            event.succeed()
            return event
        return pending.ready

    # -- fault handling (validator + async decryptor) ----------------------------------

    def _on_fault(self, fault: PageFault) -> None:
        if self.telemetry.enabled:
            self.telemetry.emit(FaultEvent(
                self.sim.now, fault.addr, fault.size,
                "write" if fault.is_write else "read",
                owners=",".join(fault.owners),
            ))
        if fault.is_write:
            self.pipeline.invalidate_overlapping(fault.addr, fault.size)
        for addr, pending in list(self._pending_decrypts.items()):
            if pending.addr < fault.addr + fault.size and fault.addr < pending.addr + pending.size:
                self._land_decrypt(pending, synchronous=True)

    def _on_free(self, region) -> None:
        """A host region vanished: any ciphertext staged from it is dead."""
        self.pipeline.invalidate_overlapping(region.addr, region.size, reason="region-freed")
        pending = self._pending_decrypts.pop(region.addr, None)
        if pending is not None:
            # The app discarded the swap-out before touching it; no
            # plaintext needs to land, but waiters must not hang.
            self.pipeline.blocked_addrs.pop(region.addr, None)
            if not pending.ready.triggered:
                pending.ready.succeed()

    def _land_decrypt(self, pending: _PendingDecrypt, synchronous: bool) -> None:
        if self._pending_decrypts.get(pending.addr) is not pending:
            return  # Already landed, or superseded by a newer swap-out.
        del self._pending_decrypts[pending.addr]
        self.machine.host_memory.write_silent(pending.addr, pending.plaintext)
        self.machine.host_memory.unprotect(pending.owner)
        self.pipeline.blocked_addrs.pop(pending.addr, None)
        if synchronous:
            self._sync_decrypts.add()
        else:
            self._async_decrypts.add()
        pending.ready.succeed()

    # -- commit machinery -------------------------------------------------------------

    def _advance_chain(self) -> Tuple[Event, Event]:
        prev, mine = self._wire_tail, self.sim.event()
        self._wire_tail = mine
        return prev, mine

    def _commit_staged(
        self,
        handle: TransferHandle,
        entry: StagedEntry,
        record: Optional[RequestRecord] = None,
    ) -> None:
        endpoint = self.machine.cpu_endpoint
        if entry.iv != endpoint.tx_iv.current:
            raise AssertionError(
                f"staged commit out of order: entry iv {entry.iv}, "
                f"channel iv {endpoint.tx_iv.current}"
            )
        endpoint.commit_tx_iv()
        self.pipeline.pop(entry)
        if record is not None:
            record.strategy = "staged"
            record.commit_iv = entry.iv
            self.telemetry.emit(IvEvent(
                self.sim.now, "cpu-tx", entry.iv, "staged", record.request_id
            ))
        elif self.telemetry.enabled:
            self.telemetry.emit(IvEvent(self.sim.now, "cpu-tx", entry.iv, "staged"))
        # Successful staged commits decay the leeway slowly back down.
        self._leeway_value = max(self._leeway_ema, 0.999 * self._leeway_value)
        # GPU copy engine authenticates with its synchronized RX IV.
        # Absent injected faults a failure here would mean our IV logic
        # is wrong; with them, recovery re-encrypts under fresh IVs.
        extra = self._deliver_ciphertext(entry.chunk, entry.message, record)
        enc_ready: Event = entry.ready
        if extra:
            enc_ready = self.sim.all_of([entry.ready, *extra])
        prev, mine = self._advance_chain()
        self.sim.process(
            self._timed_h2d(handle, entry.chunk.size, enc_ready, prev, mine,
                            staged=True, record=record)
        )

    def _commit_ondemand(
        self,
        handle: TransferHandle,
        chunk: MemoryChunk,
        parallel: bool,
        blocking_api: bool,
        record: Optional[RequestRecord] = None,
    ) -> None:
        endpoint = self.machine.cpu_endpoint
        message = endpoint.encrypt_next(chunk.payload, nbytes_logical=chunk.size)
        # A consumed IV may skip a staged sibling; that entry is dead
        # (refresh restages it) but it is a miss-cascade symptom, not
        # evidence the leeway is too small — no controller bump.
        self.pipeline.on_iv_consumed(message.sender_iv)
        extra = self._deliver_ciphertext(chunk, message, record)
        if record is not None:
            record.strategy = "ondemand" if parallel else "inline"
            record.commit_iv = message.sender_iv
            self.telemetry.emit(IvEvent(
                self.sim.now, "cpu-tx", message.sender_iv,
                "ondemand" if parallel else "inline", record.request_id,
            ))
        if parallel:
            self._ondemand_encryptions.add()
            enc_ready = self.machine.engine.submit_encrypt_parallel(
                chunk.size, urgent=True
            )
        else:
            enc_ready = self.machine.engine.submit_encrypt_inline_cc(chunk.size)
        if extra:
            enc_ready = self.sim.all_of([enc_ready, *extra])
        prev, mine = self._advance_chain()
        self.sim.process(
            self._timed_h2d(
                handle, chunk.size, enc_ready, prev, mine,
                staged=False, blocking_api=blocking_api, record=record,
            )
        )

    def _pad_nops_to(self, target_iv: int) -> int:
        """Send NOPs until the channel's next IV equals ``target_iv``.

        Returns the number of NOPs padded (for lifecycle records).
        """
        endpoint = self.machine.cpu_endpoint
        count = 0
        while endpoint.tx_iv.current < target_iv:
            message = endpoint.encrypt_next(b"\x00", nbytes_logical=self.params.nop_bytes)
            self.pipeline.on_iv_consumed(message.sender_iv)
            try:
                self.machine.gpu.endpoint.decrypt_next(message)
            except AuthenticationError:
                # The streams were desynchronized before this pad; both
                # counters advanced on the failed attempt, so aligning
                # RX onto TX (forward-only — no IV can repeat) restores
                # lock-step. A NOP carries no payload worth resending.
                self.machine.gpu.endpoint.rx_iv.advance_to(endpoint.tx_iv.current)
                self._note_recovery("resync", detail="nop")
            prev, mine = self._advance_chain()
            self.sim.process(self._timed_nop(prev, mine))
            self._nops_sent.add()
            count += 1
            if self.telemetry.enabled:
                self.telemetry.emit(IvEvent(self.sim.now, "cpu-tx", message.sender_iv, "nop"))
        return count

    # -- timed (simulated) halves --------------------------------------------------------

    def _timed_h2d(
        self,
        handle: TransferHandle,
        size: int,
        enc_ready: Optional[Event],
        prev: Event,
        mine: Event,
        staged: bool,
        blocking_api: bool = False,
        record: Optional[RequestRecord] = None,
    ):
        # Stage marks record the exact sequential wait intervals of this
        # request's wire path — they tile [submit, complete] (staged
        # hits spend ~nothing in "encrypt"; on-demand commits wait the
        # full AES service there), which is what lets the critical-path
        # profiler attribute latency without double counting.
        start = self.sim.now
        if enc_ready is not None:
            yield enc_ready
            if record is not None:
                record.mark_stage("encrypt", start, self.sim.now)
        if blocking_api and not handle.api_done.triggered:
            handle.api_done.succeed()
        start = self.sim.now
        yield prev
        if record is not None:
            record.mark_stage("wire-order", start, self.sim.now)
        if staged:
            # Validated ciphertext moves private → shared DMA buffers (§6).
            start = self.sim.now
            yield from self.machine.staging.stage(size)
            if record is not None:
                record.mark_stage("staging", start, self.sim.now)
        start = self.sim.now
        yield self.sim.timeout(self.params.cc_control_latency)
        if record is not None:
            record.mark_stage("control", start, self.sim.now)
        start = self.sim.now
        dma = self.machine.pcie.transfer_h2d(size, cc_path=True)
        mine.succeed()
        yield dma
        if record is not None:
            record.mark_stage("pcie", start, self.sim.now)
        handle.complete.succeed()

    def _timed_nop(self, prev: Event, mine: Event):
        yield prev
        yield self.sim.timeout(self.params.cc_control_latency)
        dma = self.machine.pcie.transfer_h2d(self.params.nop_bytes, cc_path=True)
        mine.succeed()
        yield dma

    def _timed_d2h_async(
        self,
        handle: TransferHandle,
        chunk: MemoryChunk,
        pending: _PendingDecrypt,
        record: Optional[RequestRecord] = None,
    ):
        # The async memcpy returns to the app right away — the GPU-side
        # encryption runs at line rate in the copy engine and the DMA
        # is queued; §5.4 additionally defers the CPU decryption.
        self._fast_api_return(handle)
        start = self.sim.now
        yield self.sim.timeout(self.params.cc_control_latency)
        if record is not None:
            record.mark_stage("control", start, self.sim.now)
        start = self.sim.now
        yield self.machine.pcie.transfer_d2h(chunk.size, cc_path=True)
        if record is not None:
            # The deferred CPU decryption runs after landing, off the
            # wire path — by design it contributes no stage here.
            record.mark_stage("pcie", start, self.sim.now)
        handle.complete.succeed()
        # Newest-first decryption: LIFO resume wants the most recent
        # swap-out back first, so its plaintext should be ready first.
        yield self.machine.engine.submit_decrypt_parallel(
            chunk.size, front=True
        )
        self._land_decrypt(pending, synchronous=False)
        if self.fault_controller.speculation_enabled:
            self.pipeline.refill(self.predictor, self._leeway())

    def _timed_d2h_sync(
        self,
        handle: TransferHandle,
        chunk: MemoryChunk,
        plaintext: bytes,
        record: Optional[RequestRecord] = None,
    ):
        start = self.sim.now
        yield self.sim.timeout(self.params.cc_control_latency)
        if record is not None:
            record.mark_stage("control", start, self.sim.now)
        start = self.sim.now
        yield self.machine.pcie.transfer_d2h(chunk.size, cc_path=True)
        if record is not None:
            record.mark_stage("pcie", start, self.sim.now)
        start = self.sim.now
        yield self.machine.engine.submit_decrypt_inline_cc(chunk.size)
        if record is not None:
            record.mark_stage("decrypt", start, self.sim.now)
        self.machine.host_memory.write_silent(chunk.addr, plaintext)
        handle.api_done.succeed()
        handle.complete.succeed()

    # -- fault plane: recovery, degradation, timeout (ISSUE 3 tentpole) -------------

    def _deliver_ciphertext(
        self,
        chunk: MemoryChunk,
        message: EncryptedMessage,
        record: Optional[RequestRecord] = None,
    ) -> List[Event]:
        """Deliver one ciphertext to the GPU copy engine, surviving
        injected tag corruption and IV desynchronization (§4.4).

        On an authentication failure both endpoints have already burned
        the failed IVs (consume precedes decrypt on each side), so the
        recovery is uniform for both fault kinds: align the GPU's RX
        counter onto the CPU's TX position — forward-only, so no IV can
        ever repeat — and re-encrypt the chunk under a fresh IV.
        Retries are bounded by the retry policy; each one contributes
        an extra timing event (urgent re-encryption + backoff delay)
        that the caller chains into the transfer's readiness.
        """
        gpu = self.machine.gpu
        endpoint = self.machine.cpu_endpoint
        inj = self.faults
        policy = self.fault_policy.retry
        extra: List[Event] = []
        attempt = 0
        while True:
            attempt += 1
            wire = message
            # The last attempt within budget skips injection so the
            # recovery is guaranteed to land — the plan models
            # transient corruption, not a severed channel.
            if inj is not None and attempt < policy.max_attempts and inj.corrupt_tag():
                wire = tamper_tag(message)
            try:
                gpu.receive_ciphertext(chunk, wire)
            except AuthenticationError:
                if attempt >= policy.max_attempts:
                    raise  # Genuine corruption: out of retry budget.
                gpu.endpoint.rx_iv.advance_to(endpoint.tx_iv.current)
                message = endpoint.encrypt_next(chunk.payload, nbytes_logical=chunk.size)
                self.pipeline.on_iv_consumed(message.sender_iv)
                extra.append(self.machine.engine.submit_encrypt_parallel(
                    chunk.size, urgent=True
                ))
                extra.append(self.sim.timeout(policy.delay(attempt)))
                continue
            if attempt > 1:
                self._auth_recoveries.add()
                self._note_recovery(
                    "auth-recover", attempt,
                    request_id=record.request_id if record is not None else -1,
                )
                self.fault_controller.observe(False)
            return extra

    def _inject_desync(self) -> None:
        """Burn one TX IV without a wire message (injected desync).

        The CPU's counter silently runs ahead of the GPU's; every
        subsequent delivery auth-fails until a recovery resyncs the
        streams. The burned IV is never reused, so the audit invariant
        holds throughout.
        """
        endpoint = self.machine.cpu_endpoint
        iv = endpoint.tx_iv.consume()
        self.pipeline.on_iv_consumed(iv)
        if self.telemetry.enabled:
            self.telemetry.emit(IvEvent(self.sim.now, "cpu-tx", iv, "desync-burn"))

    def _on_mode_change(self, previous: PipelineMode, mode: PipelineMode) -> None:
        self._mode_switches.add()
        action = {
            PipelineMode.DEGRADED: "degrade",
            PipelineMode.PROBING: "probe",
            PipelineMode.SPECULATIVE: "restore",
        }[mode]
        self._note_recovery(action, detail=f"{previous.value}->{mode.value}")
        if mode is PipelineMode.DEGRADED:
            # Staged ciphertext would only rot while the predictor is
            # wrong — drop it all (suspended requests keep theirs).
            self.pipeline.relinquish()

    def _note_recovery(
        self, action: str, attempts: int = 0, detail: str = "", request_id: int = -1
    ) -> None:
        if self.faults is not None:
            self.faults.note_recovery(action, attempts, detail, request_id)
            return
        self.telemetry.metrics.counter(f"faults.recovery.{action}").add()
        if self.telemetry.enabled:
            self.telemetry.emit(RecoveryEvent(
                self.sim.now, action, attempts, detail, request_id
            ))

    def _watch_request(self, handle: TransferHandle, record: Optional[RequestRecord]) -> None:
        """Arm the per-request timeout watchdog (off unless configured:
        lingering timers extend the drained simulation clock, which
        would skew elapsed-time claims on clean benches)."""
        if self.fault_policy.request_timeout_s is not None:
            self.sim.process(self._watch_timeout(handle, record))

    def _watch_timeout(self, handle: TransferHandle, record: Optional[RequestRecord]):
        yield self.sim.timeout(self.fault_policy.request_timeout_s)
        if handle.complete.triggered:
            return
        self._timeouts.add()
        self._note_recovery(
            "timeout", detail=handle.direction,
            request_id=record.request_id if record is not None else -1,
        )
        # The commonest stall is a suspended request whose batch
        # boundary never came: resolve the deferred set now.
        self._resolve_deferred()
        self.fault_controller.observe(False)

    # -- leeway adaptation & misc ------------------------------------------------------

    def _fast_api_return(self, handle: TransferHandle) -> None:
        self.sim.process(_fire_after(self.sim, _VALIDATION_OVERHEAD, handle.api_done))

    def _note_swap_arrival(self) -> None:
        if self.config.adaptive_leeway:
            self._leeway_ema = 0.8 * self._leeway_ema + 0.2 * self._small_since_swap
        self._small_since_swap = 0

    def _leeway(self) -> int:
        if not self.config.adaptive_leeway:
            return self.config.leeway
        value = max(self._leeway_value, self._leeway_ema)
        return min(_MAX_LEEWAY, int(round(value)))

    def _count_miss(self) -> None:
        self._consecutive_misses += 1
        if self._consecutive_misses >= _RELINQUISH_AFTER_MISSES and self.pipeline.valid_entries:
            self.pipeline.relinquish()
            self._consecutive_misses = 0

    def stats(self) -> Dict[str, float]:
        """Runtime counters for reports and tests."""
        return {
            "swap_requests": float(self.validator.requests),
            "hits": float(self.validator.hits),
            "future_hits": float(self.validator.future_hits),
            "stale": float(self.validator.stale),
            "misses": float(self.validator.misses),
            "success_rate": self.validator.success_rate,
            "nops_sent": float(self.nops_sent),
            "ondemand_encryptions": float(self.ondemand_encryptions),
            "small_transfers": float(self.small_transfers),
            "deferred": float(self.deferred_total),
            "sync_decrypts": float(self.sync_decrypts),
            "async_decrypts": float(self.async_decrypts),
            "staged_total": float(self.pipeline.staged_total),
            "invalidated_by_fault": float(self.pipeline.invalidated_by_fault),
            "invalidated_by_iv_skip": float(self.pipeline.invalidated_by_iv_skip),
            "relinquishes": float(self.pipeline.relinquish_count),
            "evicted": float(self.pipeline.evicted),
            "gpu_auth_failures": float(self.machine.gpu.auth_failures),
            "auth_recoveries": float(self.auth_recoveries),
            "timeouts": float(self.timeouts),
            "mode_switches": float(self.mode_switches),
            "degraded_commits": float(self._degraded_commits.value),
            "degraded_seconds": self.fault_controller.degraded_seconds(),
        }


def _fire_after(sim, delay: float, event: Event):
    yield sim.timeout(delay)
    if not event.triggered:
        event.succeed()
