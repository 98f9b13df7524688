"""One speculative link: predict the next transfer, settle the outcome.

The §5.1 loop on a strictly ordered (destination, size) stream, shared
by inter-GPU hops (:class:`repro.parallel.speculate.LinkSpeculator`)
and KV migration (:class:`repro.disagg.migration.MigrationSpeculator`).
Each source feeds its own :class:`~repro.core.predictor.SwapPredictor`
(a transfer to *d* of *n* bytes is "swap-in of (d, n)"); one
:class:`~repro.faults.policies.DegradationController` parks speculation
under a mispredict storm, and parked lookups ship nothing staged, so IV
streams stay monotone. A subclass's ``lookup`` is :meth:`_predict`, its
channel's forced-mispredict fault query on a hit, then :meth:`_settle`.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable

from ..faults.policies import DegradationController, FaultPolicy
from .classify import SwapClass, TransferClassifier
from .predictor import SwapPredictor

__all__ = ["StreamSpeculator"]


class StreamSpeculator:
    """Per-source schedule prediction for one speculative channel."""

    def __init__(
        self,
        clock: Callable[[], float],
        faults=None,
        warmup: int = 8,
    ) -> None:
        self.clock = clock
        #: Per-source lookups whose outcome does not feed the
        #: degradation EMA: a cold detector's first misses say nothing
        #: about the environment, and letting them trip DEGRADED would
        #: park speculation for the whole hold window at start-up.
        self.warmup = warmup
        #: Optional :class:`repro.faults.FaultInjector` for forced
        #: mispredictions (the storm campaigns).
        self.faults = faults
        self.controller = DegradationController(FaultPolicy(), clock)
        # One predictor per source: each source's outgoing sequence is
        # its own deterministic schedule; mixing sources would make the
        # learned pattern depend on how concurrent streams interleave.
        self._predictors: Dict[Hashable, SwapPredictor] = {}
        self._seen: Dict[Hashable, int] = {}
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.parked = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def _predict(self, src: Hashable, dst: int, nbytes: int) -> bool:
        """Did the source's predictor expect (``dst``, ``nbytes``) next?

        Always feeds the observation: the predictor keeps learning the
        schedule even while speculation is parked.
        """
        self.controller.poll()
        predictor = self._predictors.get(src)
        if predictor is None:
            # Every transfer is a "swap": threshold 1 keeps the weights
            # detectors (repetitive/Markov) — which fit strictly
            # ordered, same-sized trains exactly — fed for all of them.
            predictor = SwapPredictor(TransferClassifier(swap_threshold=1))
            self._predictors[src] = predictor
        predictor.classifier.register_weight_size(nbytes)
        predicted = predictor.predict(1, SwapClass.WEIGHTS)
        hit = bool(predicted) and predicted[0].key == (dst, nbytes)
        predictor.observe_swap_in(dst, nbytes)
        return hit

    def _settle(self, src: Hashable, hit: bool) -> bool:
        """Count one lookup; True only for a hit while speculation runs."""
        self.lookups += 1
        seen = self._seen[src] = self._seen.get(src, 0) + 1
        if not self.controller.speculation_enabled:
            # Parked: nothing was staged, the transfer serializes. The
            # EMA is not fed — recovery out of DEGRADED is time-driven.
            self.parked += 1
            self.misses += 1
            return False
        if seen > self.warmup:
            self.controller.observe(hit)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit
