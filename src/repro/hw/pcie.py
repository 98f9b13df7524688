"""PCIe link model.

Two independent :class:`~repro.sim.resources.BandwidthPipe` directions
(host→device and device→host), matching the duplex PCIe 5.0 x16 link
of the paper's testbed. The link carries *ciphertext or plaintext
alike* — what changes between CC modes is which bandwidth ceiling
applies (56 GB/s native vs the ≈40 GB/s CC-mode DMA path) and whether
encryption time is serialized in front of the transfer.

With a fault injector attached (:mod:`repro.faults`), DMAs can pick up
latency jitter or transiently fail; failures are replayed with the
injector's bounded exponential-backoff :class:`RetryPolicy`, modeling
PCIe's link-level replay — the transaction ultimately completes (the
link guarantees delivery), but replays consume real bandwidth and
time, and an exhausted retry budget is surfaced as its own recovery
event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..sim import BandwidthPipe, Event, Simulator
from .params import HardwareParams

__all__ = ["BusRecord", "PcieLink"]


@dataclass(frozen=True)
class BusRecord:
    """What a bus snooper (the §4 attacker) sees of one transfer.

    Only metadata is visible — the payload is AES-GCM ciphertext — but
    sizes and timing are enough for the side channels §8.1 concedes:
    1-byte transfers reveal NOP padding, i.e. that the LLM system is
    swapping and how often predictions miss.
    """

    time: float
    direction: str
    nbytes: int


class PcieLink:
    """Duplex PCIe link with per-direction FIFO occupancy."""

    def __init__(self, sim: Simulator, params: HardwareParams, faults=None) -> None:
        self.sim = sim
        self.params = params
        #: Optional :class:`repro.faults.FaultInjector` for this link.
        self.faults = faults
        #: Link-level replays carried out (transient-failure retries).
        self.replays = 0
        #: DMAs whose retry budget ran out (still delivered, but slow).
        self.retry_exhausted = 0
        self.h2d = BandwidthPipe(
            sim, params.pcie_bandwidth, latency=params.dma_overhead, name="pcie.h2d"
        )
        self.d2h = BandwidthPipe(
            sim, params.pcie_bandwidth, latency=params.dma_overhead, name="pcie.d2h"
        )
        # The CC-mode DMA path (bounce buffers in CVM shared memory)
        # has its own, lower ceiling; model it as separate pipes so CC
        # and native traffic queue independently, as on hardware.
        self.h2d_cc = BandwidthPipe(
            sim, params.cc_dma_bandwidth, latency=params.dma_overhead, name="pcie.h2d.cc"
        )
        self.d2h_cc = BandwidthPipe(
            sim, params.cc_dma_bandwidth, latency=params.dma_overhead, name="pcie.d2h.cc"
        )
        #: Attacker-visible transfer metadata (§8.1 side channels).
        self.bus_log: List[BusRecord] = []

    def transfer_h2d(self, nbytes: int, cc_path: bool = False) -> Event:
        """DMA ``nbytes`` to the device; returns a completion event."""
        self.bus_log.append(BusRecord(self.sim.now, "h2d", nbytes))
        pipe = self.h2d_cc if cc_path else self.h2d
        return self._transfer(pipe, nbytes, "h2d")

    def transfer_d2h(self, nbytes: int, cc_path: bool = False) -> Event:
        """DMA ``nbytes`` to the host; returns a completion event."""
        self.bus_log.append(BusRecord(self.sim.now, "d2h", nbytes))
        pipe = self.d2h_cc if cc_path else self.d2h
        return self._transfer(pipe, nbytes, "d2h")

    def _transfer(self, pipe: BandwidthPipe, nbytes: int, direction: str) -> Event:
        inj = self.faults
        if inj is None or not (inj.plan.pcie_drop_rate or inj.plan.pcie_jitter_rate):
            return pipe.transfer(nbytes)
        done = self.sim.event()
        self.sim.process(self._faulty_transfer(pipe, nbytes, direction, done))
        return done

    def _faulty_transfer(self, pipe: BandwidthPipe, nbytes: int, direction: str, done: Event):
        """One DMA under the fault plane: jitter, drops, bounded replay."""
        inj = self.faults
        policy = inj.retry
        attempt = 0
        while True:
            attempt += 1
            yield pipe.transfer(nbytes)
            jitter = inj.pcie_jitter(direction)
            if jitter > 0.0:
                yield self.sim.timeout(jitter)
            if not inj.pcie_drop(direction):
                break
            if attempt >= policy.max_attempts:
                # Retry budget exhausted: fall back to the link's own
                # replay machinery, which delivers without backoff.
                self.retry_exhausted += 1
                inj.note_recovery("retry-exhausted", attempt, direction)
                break
            self.replays += 1
            inj.note_recovery("retry", attempt, direction)
            yield self.sim.timeout(policy.delay(attempt))
        done.succeed()

    def observed_nops(self, nop_bytes: int = 1) -> int:
        """How many NOP-sized transfers a snooper counted (§8.1)."""
        return sum(1 for record in self.bus_log if record.nbytes == nop_bytes)

