"""CUDA-like transfer API and the two baseline runtimes.

Serving engines (FlexGen / vLLM / PEFT models) are written against the
narrow :class:`DeviceRuntime` interface — the same surface the real
PipeLLM hooks (``cudaMemcpyAsync`` / ``cudaDeviceSynchronize``):

* :class:`CudaContext` with ``CcMode.DISABLED`` is the "w/o CC"
  baseline: async DMA at native PCIe speed.
* :class:`CudaContext` with ``CcMode.ENABLED`` is the "CC" baseline:
  the memcpy call blocks while a CPU thread AES-GCM-encrypts (H2D) or
  decrypts (D2H) inline, reproducing the Fig. 2 behaviour.
* :class:`repro.core.runtime.PipeLLMRuntime` implements the same
  interface with speculative pipelined encryption.

Every runtime maintains the *functional* channel in lock-step with the
timing model: payload bytes are really encrypted under the session's
incrementing IVs and really authenticated by the GPU copy-engine
model.

A runtime keeps no transfer history of its own. Each memcpy is seen
on the PCIe link's ``bus_log`` (the §8.1 attacker's view) and, under
telemetry recording, as a :class:`~repro.telemetry.hub.RequestRecord`.
PipeLLM's predictor is fed by :class:`~repro.core.runtime.PipeLLMRuntime`
itself, from each swap it classifies.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional

from ..hw.memory import MemoryChunk
from ..sim import Event, Simulator
from ..telemetry import TransferEvent
from ..telemetry.hub import RequestRecord
from .machine import CcMode, Machine

__all__ = ["CudaContext", "DeviceRuntime", "TransferHandle"]

H2D = "h2d"
D2H = "d2h"


@dataclass
class TransferHandle:
    """Tracks one memcpy from API call to data landing."""

    chunk: MemoryChunk
    direction: str
    #: Fires when the (possibly blocking) API call returns to the app.
    api_done: Event
    #: Fires when the data is actually resident at the destination.
    complete: Event


class DeviceRuntime(abc.ABC):
    """The memcpy/synchronize surface all serving engines use."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.sim: Simulator = machine.sim
        self._outstanding: List[Event] = []

    # -- interface ---------------------------------------------------------

    @abc.abstractmethod
    def memcpy_h2d(self, chunk: MemoryChunk) -> TransferHandle:
        """Start a host→device copy; blocking behaviour is mode-specific."""

    @abc.abstractmethod
    def memcpy_d2h(self, chunk: MemoryChunk) -> TransferHandle:
        """Start a device→host copy into host region ``chunk.addr``."""

    def synchronize(self) -> Event:
        """Event firing once every transfer issued so far has landed."""
        pending = [e for e in self._outstanding if not e.triggered]
        self._outstanding = pending
        return self.sim.all_of(list(pending))

    def cpu_access(self, addr: int) -> Event:
        """Wait-point before the CPU touches host data at ``addr``.

        Baseline runtimes decrypt synchronously, so data is always
        ready; PipeLLM overrides this for its asynchronous decryptor.
        """
        event = self.sim.event()
        event.succeed()
        return event

    def hint_weight_chunk_size(self, nbytes: int) -> None:
        """Model-geometry hint; baselines have no predictor to feed."""

    def hint_kv_block_size(self, nbytes: int) -> None:
        """Model-geometry hint; baselines have no predictor to feed."""

    # -- shared plumbing ------------------------------------------------------

    def _track(self, complete: Event) -> None:
        self._outstanding.append(complete)

    def _telemetry_request(self, handle: TransferHandle) -> Optional[RequestRecord]:
        """Open a per-request lifecycle record on the telemetry hub.

        Returns None (after one attribute check) when telemetry is
        disabled, so the hot path stays effectively free. When enabled,
        a :class:`TransferEvent` goes on the bus and the record's
        api/complete timestamps are stitched in via event callbacks.
        """
        hub = self.machine.telemetry
        if not hub.enabled:
            return None
        chunk = handle.chunk
        record = hub.begin_request(
            handle.direction, chunk.addr, chunk.size, self.sim.now, tag=chunk.tag
        )
        hub.emit(TransferEvent(self.sim.now, handle.direction, chunk.addr,
                               chunk.size, chunk.tag, record.request_id))
        handle.api_done.add_callback(
            lambda _e: hub.mark_api_done(record, self.sim.now)
        )
        handle.complete.add_callback(
            lambda _e: hub.mark_complete(record, self.sim.now)
        )
        return record


class CudaContext(DeviceRuntime):
    """Baseline runtimes: native ("w/o CC") and NVIDIA CC ("CC")."""

    def __init__(self, machine: Machine) -> None:
        super().__init__(machine)
        self.params = machine.params

    # -- host to device ---------------------------------------------------

    def memcpy_h2d(self, chunk: MemoryChunk) -> TransferHandle:
        handle = TransferHandle(chunk, H2D, self.sim.event(), self.sim.event())
        self._track(handle.complete)
        record = self._telemetry_request(handle)
        if record is not None:
            record.strategy = "inline" if self.machine.cc_enabled else "native"
        if self.machine.cc_enabled:
            self.sim.process(self._h2d_cc(handle, record))
        else:
            self.sim.process(self._h2d_plain(handle, record))
        return handle

    def _h2d_plain(self, handle: TransferHandle, record: Optional[RequestRecord] = None):
        chunk = handle.chunk
        self.sim.process(_fire_after(self.sim, self.params.ncc_api_latency(chunk.size), handle.api_done))
        start = self.sim.now
        yield self.machine.pcie.transfer_h2d(chunk.size)
        if record is not None:
            record.mark_stage("pcie", start, self.sim.now)
        self.machine.gpu.receive_plaintext(chunk)
        handle.complete.succeed()

    def _h2d_cc(self, handle: TransferHandle, record: Optional[RequestRecord] = None):
        chunk = handle.chunk
        # Functional layer runs eagerly in call order on both sides:
        # the CUDA library consumes TX IVs in API-call order, and the
        # channel delivers ciphertext in the same order (with several
        # crypto threads the *encryptions* overlap, but commits to the
        # wire stay IV-ordered — anything else fails GCM auth).
        message = self.machine.cpu_endpoint.encrypt_next(chunk.payload, nbytes_logical=chunk.size)
        self.machine.gpu.receive_ciphertext(chunk, message)
        # Timing: the call blocks for control plane + one-thread AES.
        service = self.params.cc_control_latency + chunk.size / self.params.enc_bandwidth_per_thread
        start = self.sim.now
        yield self.machine.engine._enc_pool.submit(service)
        if record is not None:
            record.mark_stage("encrypt", start, self.sim.now)
        self.machine.engine.bytes_encrypted += chunk.size
        handle.api_done.succeed()
        start = self.sim.now
        yield self.machine.pcie.transfer_h2d(chunk.size, cc_path=True)
        if record is not None:
            record.mark_stage("pcie", start, self.sim.now)
        handle.complete.succeed()

    # -- device to host ----------------------------------------------------

    def memcpy_d2h(self, chunk: MemoryChunk) -> TransferHandle:
        handle = TransferHandle(chunk, D2H, self.sim.event(), self.sim.event())
        self._track(handle.complete)
        record = self._telemetry_request(handle)
        if record is not None:
            record.strategy = "inline" if self.machine.cc_enabled else "native"
        if self.machine.cc_enabled:
            self.sim.process(self._d2h_cc(handle, record))
        else:
            self.sim.process(self._d2h_plain(handle, record))
        return handle

    def _d2h_plain(self, handle: TransferHandle, record: Optional[RequestRecord] = None):
        chunk = handle.chunk
        self.sim.process(_fire_after(self.sim, self.params.ncc_api_latency(chunk.size), handle.api_done))
        start = self.sim.now
        yield self.machine.pcie.transfer_d2h(chunk.size)
        if record is not None:
            record.mark_stage("pcie", start, self.sim.now)
        device_payload = self.machine.gpu.read_plaintext(chunk.tag)
        self.machine.host_memory.write_silent(chunk.addr, device_payload or chunk.payload)
        handle.complete.succeed()

    def _d2h_cc(self, handle: TransferHandle, record: Optional[RequestRecord] = None):
        chunk = handle.chunk
        # Functional: GPU copy engine encrypts with its next TX IV at
        # call time; the CPU decrypts in the same order below.
        message = self.machine.gpu.send_ciphertext(chunk)
        plaintext = self.machine.cpu_endpoint.decrypt_next(message)
        start = self.sim.now
        yield self.machine.pcie.transfer_d2h(chunk.size, cc_path=True)
        if record is not None:
            record.mark_stage("pcie", start, self.sim.now)
        # Timing: the call blocks until the CPU thread finished decrypting.
        service = self.params.cc_control_latency + chunk.size / self.params.dec_bandwidth_per_thread
        start = self.sim.now
        yield self.machine.engine._dec_pool.submit(service)
        if record is not None:
            record.mark_stage("decrypt", start, self.sim.now)
        self.machine.engine.bytes_decrypted += chunk.size
        self.machine.host_memory.write_silent(chunk.addr, plaintext)
        handle.api_done.succeed()
        handle.complete.succeed()


def _fire_after(sim: Simulator, delay: float, event: Event):
    yield sim.timeout(delay)
    event.succeed()
