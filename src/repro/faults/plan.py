"""Declarative fault plans: *what* to inject, at which rates, when.

A :class:`FaultPlan` is a frozen bag of injection knobs consumed by
:class:`repro.faults.injector.FaultInjector`. Plans carry no state and
no randomness — the same plan handed to two injectors forked from the
same seed produces bit-identical fault schedules, which is what makes
fault campaigns replayable and the property tests meaningful.

Rates are per-opportunity probabilities (one draw per transfer, per
engine submission, per delivery attempt, ...) except the cluster crash
knob, which is a Poisson rate in crashes per simulated second. The
``start``/``stop`` window bounds *when* the plan is live in simulated
time, so a campaign can model a transient storm and verify the system
recovers after it passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["FaultPlan"]

_RATE_FIELDS = (
    "pcie_jitter_rate",
    "pcie_drop_rate",
    "engine_stall_rate",
    "tag_corrupt_rate",
    "iv_desync_rate",
    "mispredict_rate",
    "link_jitter_rate",
    "link_drop_rate",
    "link_mispredict_rate",
    "migration_mispredict_rate",
    "migration_drop_rate",
)


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault-injection configuration."""

    name: str = "plan"
    #: Simulated-time window in which the plan is live. ``stop=None``
    #: keeps it live forever.
    start: float = 0.0
    stop: Optional[float] = None

    # -- PCIe link (hw/pcie.py) -----------------------------------------
    #: Probability one DMA picks up extra latency (link retraining,
    #: congestion on the bounce-buffer path).
    pcie_jitter_rate: float = 0.0
    #: Probability one DMA transiently fails and must be replayed.
    pcie_drop_rate: float = 0.0

    # -- crypto engine (hw/engine.py) -----------------------------------
    #: Probability one worker submission stalls (scheduling hiccup,
    #: cache-thrashing neighbour) for a fixed extra time.
    engine_stall_rate: float = 0.0
    #: Service-time multiplier applied to every submission while the
    #: plan is live (1.0 = nominal speed).
    engine_slowdown: float = 1.0

    # -- secure channel (crypto/session.py, core/runtime.py) ------------
    #: Probability one CPU→GPU delivery is tampered in shared memory
    #: (flipped tag bit → GCM reject at the copy engine).
    tag_corrupt_rate: float = 0.0
    #: Probability one swap request is preceded by a phantom TX-IV
    #: consumption, desynchronizing the implicit counters (§4.4).
    iv_desync_rate: float = 0.0

    # -- validator (core/validator.py) ----------------------------------
    #: Probability a staged hit is forcibly turned into a miss,
    #: modeling a wrong sequence prediction.
    mispredict_rate: float = 0.0

    # -- interconnect (hw/interconnect.py) ------------------------------
    #: Probability one inter-GPU hop leg picks up extra latency
    #: (bounce-buffer congestion, copy-engine contention).
    link_jitter_rate: float = 0.0
    #: Probability one hop leg transiently fails and must be replayed.
    link_drop_rate: float = 0.0
    #: Probability one speculated link hop is forced into a miss,
    #: modeling a wrong collective-schedule prediction.
    link_mispredict_rate: float = 0.0

    # -- KV migration (repro.disagg) ------------------------------------
    #: Probability one speculated migration chunk is forced into a
    #: miss, modeling a wrong migration-schedule prediction.
    migration_mispredict_rate: float = 0.0
    #: Probability one migration chunk is lost on the wire and must be
    #: retransmitted (same ciphertext — no IV is ever re-consumed).
    migration_drop_rate: float = 0.0

    # -- cluster (repro.cluster) ----------------------------------------
    #: Poisson rate of replica crashes (crashes per simulated second).
    replica_crash_rate: float = 0.0
    #: Crash-to-recovery delay for plan-injected crashes (seconds).
    replica_recover_after: float = 5.0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value!r}")
        if self.engine_slowdown < 1.0:
            raise ValueError("engine_slowdown must be >= 1.0")
        if self.replica_crash_rate < 0 or self.replica_recover_after < 0:
            raise ValueError("cluster knobs must be non-negative")
        if self.stop is not None and self.stop < self.start:
            raise ValueError("stop must not precede start")

    def active(self, now: float) -> bool:
        """Is the plan live at simulated time ``now``?"""
        if now < self.start:
            return False
        return self.stop is None or now < self.stop

    @classmethod
    def storm(cls, rate: float, start: float = 0.0,
              stop: Optional[float] = None) -> "FaultPlan":
        """A misprediction/desync storm at ``rate`` (the campaign shape).

        ``rate`` drives forced mispredictions directly; desync and tag
        corruption ride along at a quarter of it so every recovery path
        is exercised without desync dominating.
        """
        return cls(
            name=f"storm-{rate:g}",
            start=start,
            stop=stop,
            mispredict_rate=rate,
            iv_desync_rate=rate / 4.0,
            tag_corrupt_rate=rate / 4.0,
        )

    @classmethod
    def migration_storm(cls, rate: float, start: float = 0.0,
                        stop: Optional[float] = None) -> "FaultPlan":
        """A KV-migration storm at ``rate`` (the disagg campaign shape).

        ``rate`` drives forced migration mispredictions so staged
        chunks keep falling back to the serialized path; wire drops
        ride along at a quarter of it to exercise the retransmission
        path (same ciphertext, no fresh IV).
        """
        return cls(
            name=f"migration-storm-{rate:g}",
            start=start,
            stop=stop,
            migration_mispredict_rate=rate,
            migration_drop_rate=rate / 4.0,
        )

    @classmethod
    def link_storm(cls, rate: float, start: float = 0.0,
                   stop: Optional[float] = None) -> "FaultPlan":
        """An inter-GPU link storm at ``rate`` (the parallel campaign shape).

        ``rate`` drives forced link mispredictions; jitter and drops
        ride along at reduced rates so the interconnect's replay path
        is exercised while misses stay the dominant signal for the
        degradation controller.
        """
        return cls(
            name=f"link-storm-{rate:g}",
            start=start,
            stop=stop,
            link_mispredict_rate=rate,
            link_jitter_rate=rate / 2.0,
            link_drop_rate=rate / 4.0,
        )
