"""Speculative pre-encryption for inter-GPU link traffic.

Collective schedules are the most predictable traffic in the system:
a ring all-reduce visits the same (src, dst, size) sequence every
layer, every step. The :class:`LinkSpeculator` runs the shared
:class:`~repro.core.speculate.StreamSpeculator` loop per source GPU (a
hop to peer *d* of *n* bytes is "swap-in of chunk (d, n)") and
answers, per hop, whether the host's bounce-buffer crypto was
pre-arranged under the predicted (link, IV) — the staged fast path of
:class:`repro.hw.interconnect.Interconnect` — or must serialize.

Under a link storm (forced mispredictions from the fault plane) the
degradation controller parks speculation and every hop takes the
serialized-but-safe path until the time-driven probe re-enables it.
Parked lookups never ship staged ciphertexts, so IV streams stay
monotone throughout — the storm test's core assertion.
"""

from __future__ import annotations

from ..core.speculate import StreamSpeculator

__all__ = ["LinkSpeculator"]


class LinkSpeculator(StreamSpeculator):
    """Per-source-GPU schedule prediction for link hops."""

    def lookup(self, src: int, dst: int, nbytes: int) -> bool:
        """One hop is about to cross the fabric: was it pre-arranged?"""
        hit = self._predict(src, dst, nbytes)
        if hit and self.faults is not None and self.faults.link_mispredict(f"{src}->{dst}"):
            hit = False
        return self._settle(src, hit)
