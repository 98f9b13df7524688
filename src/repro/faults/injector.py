"""The seeded fault-injection plane.

One :class:`FaultInjector` is threaded through a machine at build time
(``Machine(..., faults=injector)``) and consulted at every injection
point: the PCIe link asks about drops and jitter, the crypto engine
about stalls and slowdowns, the runtime about tag corruption and IV
desync, the validator about forced mispredictions, and the cluster
about replica crashes.

Determinism is the whole design:

* every domain draws from its **own** :meth:`SeededRng.fork` stream,
  so e.g. adding a PCIe transfer never perturbs which swap gets a
  corrupted tag;
* decisions depend only on (seed, draw index, sim time vs the plan's
  window) — never on wall-clock or dict ordering;
* :meth:`child` forks a derived injector (same plan, decoupled
  streams) for each cluster replica.

Every fault that actually fires bumps an always-on ``faults.injected.*``
metric and, when a recording session is live, emits an
:class:`~repro.telemetry.events.InjectionEvent` on the machine's hub.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim import Simulator
from ..sim.rng import SeededRng, default_seed
from ..telemetry import InjectionEvent, RecoveryEvent, TelemetryHub
from .plan import FaultPlan
from .policies import RetryPolicy

__all__ = ["FaultInjector"]

#: Maximum extra latency per jittered DMA; the draw is uniform in
#: (0, _PCIE_JITTER_S].
_PCIE_JITTER_S = 20e-6

#: Extra service time of one stalled crypto-engine submission.
_ENGINE_STALL_S = 200e-6

#: Maximum extra latency per jittered hop leg; the draw is uniform
#: in (0, _LINK_JITTER_S].
_LINK_JITTER_S = 20e-6


class FaultInjector:
    """Deterministic, per-domain-seeded fault decisions for one machine."""

    def __init__(
        self,
        plan: FaultPlan,
        seed: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.plan = plan
        self.seed = default_seed(7) if seed is None else seed
        #: Link-level replay policy (:func:`repro.hw.pcie.replayed`).
        self.retry = retry or RetryPolicy()
        root = SeededRng(self.seed).fork(f"faults:{plan.name}")
        self._rng: Dict[str, SeededRng] = {
            domain: root.fork(domain)
            for domain in (
                "pcie", "engine", "crypto", "validator", "cluster",
                "interconnect", "migration",
            )
        }
        self.sim: Optional[Simulator] = None
        self.telemetry: Optional[TelemetryHub] = None
        #: fault kind -> times it actually fired.
        self.counts: Dict[str, int] = {}
        #: recovery action -> times a policy carried it out.
        self.recoveries: Dict[str, int] = {}

    def bind(self, sim: Simulator, telemetry: Optional[TelemetryHub] = None) -> "FaultInjector":
        """Attach the simulator clock (and optionally a telemetry hub).

        Machines bind their injector at construction; rebinding on a
        replica's next incarnation just swaps the hub.
        """
        self.sim = sim
        if telemetry is not None:
            self.telemetry = telemetry
        return self

    def child(self, label: str) -> "FaultInjector":
        """Derived injector with decoupled streams (cluster replicas)."""
        return FaultInjector(
            self.plan,
            seed=SeededRng(self.seed).fork(f"child:{label}").randint(0, 2**31 - 1),
            retry=self.retry,
        )

    # -- bookkeeping -----------------------------------------------------

    @property
    def injected_total(self) -> int:
        return sum(self.counts.values())

    @property
    def recovery_total(self) -> int:
        return sum(self.recoveries.values())

    @property
    def _now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    def _live(self) -> bool:
        return self.plan.active(self._now)

    def _fire(self, domain: str, action: str, detail: str = "") -> None:
        self.counts[action] = self.counts.get(action, 0) + 1
        hub = self.telemetry
        if hub is not None:
            hub.metrics.counter(f"faults.injected.{action}").add()
            if hub.enabled:
                hub.emit(InjectionEvent(self._now, domain, action, detail))

    def note_recovery(self, action: str, attempts: int = 0, detail: str = "",
                      request_id: int = -1) -> None:
        """Record one policy reaction (retry, resync, mode change, ...).

        Injection points call this so every recovery is countable and,
        under a recording session, visible on the trace's recovery lane.
        """
        self.recoveries[action] = self.recoveries.get(action, 0) + 1
        hub = self.telemetry
        if hub is not None:
            hub.metrics.counter(f"faults.recovery.{action}").add()
            if hub.enabled:
                hub.emit(RecoveryEvent(self._now, action, attempts, detail, request_id))

    def _chance(self, domain: str, rate: float, action: str, detail: str = "") -> bool:
        """One Bernoulli fault draw on ``domain``'s stream (live plan only)."""
        if not self._live() or rate <= 0.0:
            return False
        if self._rng[domain].random() < rate:
            self._fire(domain, action, detail)
            return True
        return False

    def _jitter(self, domain: str, rate: float, max_s: float, action: str,
                detail: str) -> float:
        """Extra latency in (0, ``max_s``] with probability ``rate``; else 0."""
        if not self._live() or rate <= 0.0:
            return 0.0
        rng = self._rng[domain]
        if rng.random() < rate:
            jitter = rng.uniform(0.0, max_s)
            self._fire(domain, action, detail)
            return jitter
        return 0.0

    # -- PCIe link -------------------------------------------------------

    def pcie_drop(self, direction: str) -> bool:
        """Should this DMA transiently fail (link-level replay)?"""
        return self._chance("pcie", self.plan.pcie_drop_rate, "pcie-drop", direction)

    def pcie_jitter(self, direction: str) -> float:
        """Extra latency (seconds) to tack onto this DMA; 0 = clean."""
        return self._jitter("pcie", self.plan.pcie_jitter_rate, _PCIE_JITTER_S,
                            "pcie-jitter", direction)

    # -- crypto engine ---------------------------------------------------

    def engine_service_time(self, service: float, pool: str) -> float:
        """Service time after slowdown and a possible stall."""
        if not self._live():
            return service
        service *= self.plan.engine_slowdown
        if (self.plan.engine_stall_rate > 0.0
                and self._rng["engine"].random() < self.plan.engine_stall_rate):
            self._fire("engine", "engine-stall", pool)
            service += _ENGINE_STALL_S
        return service

    # -- secure channel --------------------------------------------------

    def corrupt_tag(self) -> bool:
        """Should this CPU→GPU delivery be tampered in shared memory?"""
        return self._chance("crypto", self.plan.tag_corrupt_rate, "tag-corrupt")

    def desync_iv(self) -> bool:
        """Should a phantom TX-IV consumption desync the counters?"""
        return self._chance("crypto", self.plan.iv_desync_rate, "iv-desync")

    # -- validator -------------------------------------------------------

    def mispredict(self) -> bool:
        """Should this staged hit be forced into a miss?"""
        return self._chance("validator", self.plan.mispredict_rate, "mispredict")

    # -- interconnect ----------------------------------------------------

    def link_drop(self, link: str) -> bool:
        """Should this inter-GPU hop leg transiently fail (replay)?"""
        return self._chance("interconnect", self.plan.link_drop_rate, "link-drop", link)

    def link_jitter(self, link: str) -> float:
        """Extra latency (seconds) for this hop leg; 0 = clean."""
        return self._jitter("interconnect", self.plan.link_jitter_rate,
                            _LINK_JITTER_S, "link-jitter", link)

    def link_mispredict(self, link: str) -> bool:
        """Should this speculated link hop be forced into a miss?"""
        return self._chance("interconnect", self.plan.link_mispredict_rate,
                            "link-mispredict", link)

    # -- KV migration ----------------------------------------------------

    def migration_mispredict(self, link: str) -> bool:
        """Should this speculated migration chunk be forced into a miss?"""
        return self._chance("migration", self.plan.migration_mispredict_rate,
                            "migration-mispredict", link)

    def migration_drop(self, link: str) -> bool:
        """Should this migration chunk be lost on the wire (resend)?"""
        return self._chance("migration", self.plan.migration_drop_rate,
                            "migration-drop", link)

    # -- cluster ---------------------------------------------------------

    def next_crash_interval(self) -> Optional[float]:
        """Seconds until the next plan-scheduled replica crash."""
        if self.plan.replica_crash_rate <= 0.0:
            return None
        return self._rng["cluster"].exponential(self.plan.replica_crash_rate)

    def pick_replica(self, count: int) -> int:
        """Which replica index the next crash hits."""
        return self._rng["cluster"].randint(0, count - 1)

    def record_crash(self, replica: int) -> None:
        """Count a crash the cluster plane carried out for this plan."""
        self._fire("cluster", "replica-crash", f"r{replica}")

    def __repr__(self) -> str:
        return (f"FaultInjector(plan={self.plan.name!r}, seed={self.seed}, "
                f"injected={self.injected_total})")
