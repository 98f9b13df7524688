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
event. That loop, :func:`replayed`, is shared with the inter-GPU
fabric's hop legs (:mod:`repro.hw.interconnect`); the injector's
``recoveries`` count every replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..sim import BandwidthPipe, Event, Simulator, SpanTracer
from .params import HardwareParams

__all__ = ["BusRecord", "PcieLink", "replayed"]


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

    def __init__(self, sim: Simulator, params: HardwareParams, faults=None,
                 tracer: Optional[SpanTracer] = None) -> None:
        self.sim = sim
        self.params = params
        #: Optional :class:`repro.faults.FaultInjector` for this link.
        self.faults = faults
        self.h2d = BandwidthPipe(sim, params.pcie_bandwidth, latency=params.dma_overhead,
                                 name="pcie.h2d", tracer=tracer)
        self.d2h = BandwidthPipe(sim, params.pcie_bandwidth, latency=params.dma_overhead,
                                 name="pcie.d2h", tracer=tracer)
        # The CC-mode DMA path (bounce buffers in CVM shared memory)
        # has its own, lower ceiling; model it as separate pipes so CC
        # and native traffic queue independently, as on hardware.
        self.h2d_cc = BandwidthPipe(sim, params.cc_dma_bandwidth, latency=params.dma_overhead,
                                    name="pcie.h2d.cc", tracer=tracer)
        self.d2h_cc = BandwidthPipe(sim, params.cc_dma_bandwidth, latency=params.dma_overhead,
                                    name="pcie.d2h.cc", tracer=tracer)
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
        return replayed(self.sim, pipe, nbytes, inj, inj.pcie_drop, inj.pcie_jitter,
                        direction)

    def observed_nops(self) -> int:
        """How many NOP-sized transfers a snooper counted (§8.1)."""
        nop_bytes = self.params.nop_bytes
        return sum(1 for record in self.bus_log if record.nbytes == nop_bytes)


def replayed(sim: Simulator, pipe: BandwidthPipe, nbytes: int, faults,
             drop: Callable[[str], bool], jitter: Callable[[str], float],
             label: str) -> Event:
    """One transfer on ``pipe`` under the fault plane; returns its completion.

    Each attempt occupies the pipe plus ``jitter(label)`` seconds; a
    ``drop(label)`` is replayed after ``faults.retry`` backoff (a
    ``"retry"`` recovery) until the budget runs out, when the link's own
    replay delivers without backoff (``"retry-exhausted"``).
    """
    policy = faults.retry
    done = sim.event()

    def attempts():
        attempt = 0
        while True:
            attempt += 1
            yield pipe.transfer(nbytes)
            delay = jitter(label)
            if delay > 0.0:
                yield sim.timeout(delay)
            if not drop(label):
                break
            if attempt >= policy.max_attempts:
                faults.note_recovery("retry-exhausted", attempt, label)
                break
            faults.note_recovery("retry", attempt, label)
            yield sim.timeout(policy.delay(attempt))
        done.succeed()

    sim.process(attempts())
    return done
