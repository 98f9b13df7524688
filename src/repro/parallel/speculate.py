"""Speculative pre-encryption for inter-GPU link traffic.

Collective schedules are the most predictable traffic in the system:
a ring all-reduce visits the same (src, dst, size) sequence every
layer, every step. The :class:`LinkSpeculator` feeds each source GPU's
outgoing hop sequence into its own :class:`~repro.core.predictor.
SwapPredictor` (the §5.1 hypothesis racer, reused unchanged — a hop to
peer *d* of *n* bytes is "swap-in of chunk (d, n)") and answers, per
hop, whether the host's bounce-buffer crypto was pre-arranged under
the predicted (link, IV) — the staged fast path of
:class:`repro.hw.interconnect.Interconnect` — or must serialize.

A :class:`~repro.faults.policies.DegradationController` rides along:
under a link storm (forced mispredictions from the fault plane) the
miss-rate EMA climbs, speculation parks, and every hop takes the
serialized-but-safe path until the time-driven probe re-enables it.
Parked lookups never ship staged ciphertexts, so IV streams stay
monotone throughout — the storm test's core assertion.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core.classify import SwapClass, TransferClassifier
from ..core.predictor import SwapPredictor
from ..faults.policies import DegradationController, FaultPolicy

__all__ = ["LinkSpeculator"]


class LinkSpeculator:
    """Per-source-GPU schedule prediction for link hops."""

    def __init__(
        self,
        clock: Callable[[], float],
        policy: Optional[FaultPolicy] = None,
        faults=None,
        sabotage: Optional[str] = None,
        warmup: int = 8,
    ) -> None:
        self.clock = clock
        #: Per-source lookups whose outcome does not feed the
        #: degradation EMA: a cold detector's first misses say nothing
        #: about the environment, and letting them trip DEGRADED would
        #: park speculation for the whole hold window at start-up.
        self.warmup = warmup
        #: Optional :class:`repro.faults.FaultInjector` for forced
        #: link mispredictions (the storm campaigns).
        self.faults = faults
        self.sabotage = sabotage
        self.controller = DegradationController(policy or FaultPolicy(), clock)
        # One classifier + predictor per source GPU: each GPU's
        # outgoing hop sequence is its own deterministic schedule;
        # mixing sources would make the learned pattern depend on how
        # concurrent steps interleave.
        self._classifiers: Dict[int, TransferClassifier] = {}
        self._predictors: Dict[int, SwapPredictor] = {}
        self._seen: Dict[int, int] = {}
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.parked = 0

    def _predictor(self, src: int) -> SwapPredictor:
        if src not in self._predictors:
            classifier = TransferClassifier(swap_threshold=1)
            self._classifiers[src] = classifier
            self._predictors[src] = SwapPredictor(classifier, sabotage=self.sabotage)
        return self._predictors[src]

    def lookup(self, src: int, dst: int, nbytes: int) -> bool:
        """One hop is about to cross the fabric: was it pre-arranged?

        Always feeds the observation (the predictor keeps learning the
        schedule even while parked); returns True only when the
        prediction matched *and* the degradation controller currently
        allows speculation.
        """
        self.controller.poll()
        predictor = self._predictor(src)
        # Link hops are repetitive, strictly ordered traffic — the
        # weights-class hypotheses (repetitive/Markov) fit exactly.
        self._classifiers[src].register_weight_size(nbytes)
        predicted = predictor.predict(1, SwapClass.WEIGHTS)
        hit = bool(predicted) and predicted[0].key == (dst, nbytes)
        predictor.observe_swap_in(dst, nbytes)
        if hit and self.faults is not None and self.faults.link_mispredict(f"{src}->{dst}"):
            hit = False
        self.lookups += 1
        self._seen[src] = self._seen.get(src, 0) + 1
        if not self.controller.speculation_enabled:
            # Parked: nothing was staged, the hop serializes. The EMA
            # is not fed — recovery out of DEGRADED is time-driven.
            self.parked += 1
            self.misses += 1
            return False
        if self._seen[src] > self.warmup:
            self.controller.observe(hit)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit

