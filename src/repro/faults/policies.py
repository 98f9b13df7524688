"""Policies that survive injected faults: retry, timeout, degradation.

Three pieces, all deterministic and all observable through telemetry:

* :class:`RetryPolicy` — bounded retries with exponential backoff,
  used by the PCIe link for transient DMA failures and by the runtime
  for authentication-failure recovery (§4.4 re-encryption).
* :class:`FaultPolicy` — the runtime-facing bundle: a retry policy,
  an optional per-request timeout, and the degradation thresholds.
* :class:`DegradationController` — the three-state machine dropping
  the pipeline to non-speculative in-order encryption after a
  misprediction/desync storm and re-enabling speculation once the
  observed miss rate recovers:

  .. code-block:: text

      SPECULATIVE --(miss EMA >= enter)--> DEGRADED
      DEGRADED    --(hold elapsed)------> PROBING
      PROBING     --(EMA <= exit)-------> SPECULATIVE
      PROBING     --(EMA still high)----> DEGRADED   (hold restarts)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

__all__ = ["DegradationController", "FaultPolicy", "PipelineMode", "RetryPolicy"]

#: Probe observations before deciding to restore or re-degrade.
PROBE_SAMPLES = 8


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient faults."""

    #: Total tries including the first (so 6 = 5 retries).
    max_attempts: int = 6
    #: Backoff before the first retry (seconds).
    base_delay_s: float = 10e-6
    #: Multiplier applied per subsequent retry.
    multiplier: float = 2.0
    #: Backoff ceiling (seconds).
    max_delay_s: float = 1e-3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(self.max_delay_s, self.base_delay_s * self.multiplier ** (attempt - 1))


@dataclass(frozen=True)
class FaultPolicy:
    """How a runtime survives faults; all knobs deterministic."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Per-request watchdog for swap transfers; ``None`` disables it
    #: (the watchdog timer would otherwise pad idle tails of a run).
    request_timeout_s: Optional[float] = None
    #: Miss-rate EMA at/above which speculation is abandoned.
    enter_miss_rate: float = 0.25
    #: Miss-rate EMA at/below which a probe re-enables speculation.
    exit_miss_rate: float = 0.10
    #: EMA smoothing factor (weight of the newest observation).
    ema_alpha: float = 0.15
    #: Observations required before the controller may degrade —
    #: cold-start misses must not read as a storm.
    min_samples: int = 12
    #: Time spent in-order before probing speculation again (seconds).
    degraded_hold_s: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.ema_alpha <= 1.0:
            raise ValueError("ema_alpha must be in (0, 1]")
        if not 0.0 <= self.exit_miss_rate <= self.enter_miss_rate <= 1.0:
            raise ValueError("need 0 <= exit_miss_rate <= enter_miss_rate <= 1")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.degraded_hold_s < 0:
            raise ValueError("degraded_hold_s must be non-negative")
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive (or None)")


class PipelineMode(enum.Enum):
    """Degradation state of the speculative pipeline."""

    #: Full speculative pipelined encryption (the paper's fast path).
    SPECULATIVE = "speculative"
    #: Non-speculative in-order encryption; nothing is staged.
    DEGRADED = "degraded"
    #: Speculation re-enabled on trial while the EMA is re-measured.
    PROBING = "probing"


class DegradationController:
    """Miss-rate EMA driving SPECULATIVE / DEGRADED / PROBING.

    The controller is fed one observation per speculation opportunity
    (``observe(ok)``) and polled lazily on request arrivals
    (``poll()``) — no timer process, so an idle machine schedules no
    events. Mode transitions are appended to :attr:`transitions` as
    ``(time, from, to)`` and fanned out to registered listeners (the
    runtime uses this to relinquish the pipeline and emit telemetry).
    """

    def __init__(self, policy: FaultPolicy, clock: Callable[[], float]) -> None:
        self.policy = policy
        self._clock = clock
        self.mode = PipelineMode.SPECULATIVE
        self.miss_ema = 0.0
        self.samples = 0
        self._probe_seen = 0
        self._degraded_since: Optional[float] = None
        self._degraded_acc = 0.0
        self.transitions: List[Tuple[float, str, str]] = []
        self._listeners: List[Callable[[PipelineMode, PipelineMode], None]] = []

    # -- wiring ----------------------------------------------------------

    def on_transition(self, listener: Callable[[PipelineMode, PipelineMode], None]) -> None:
        self._listeners.append(listener)

    @property
    def speculation_enabled(self) -> bool:
        return self.mode is not PipelineMode.DEGRADED

    @property
    def switches(self) -> int:
        """Mode changes so far (a stable run has 0)."""
        return len(self.transitions)

    def degraded_seconds(self) -> float:
        """Total simulated time spent in DEGRADED so far."""
        extra = 0.0
        if self._degraded_since is not None:
            extra = self._clock() - self._degraded_since
        return self._degraded_acc + extra

    # -- state machine ---------------------------------------------------

    def observe(self, ok: bool) -> None:
        """Feed one speculation outcome (True = served as predicted)."""
        alpha = self.policy.ema_alpha
        self.miss_ema = (1.0 - alpha) * self.miss_ema + (0.0 if ok else alpha)
        self.samples += 1
        if self.mode is PipelineMode.SPECULATIVE:
            if (self.samples >= self.policy.min_samples
                    and self.miss_ema >= self.policy.enter_miss_rate):
                self._enter(PipelineMode.DEGRADED)
        elif self.mode is PipelineMode.PROBING:
            self._probe_seen += 1
            if self.miss_ema >= self.policy.enter_miss_rate:
                self._enter(PipelineMode.DEGRADED)
            elif self._probe_seen >= PROBE_SAMPLES:
                if self.miss_ema <= self.policy.exit_miss_rate:
                    self._enter(PipelineMode.SPECULATIVE)
                else:
                    self._enter(PipelineMode.DEGRADED)
        # DEGRADED ignores observations: nothing speculative runs, so
        # there is no signal — recovery is time-driven via poll().

    def poll(self) -> None:
        """Time-driven part: DEGRADED → PROBING once the hold expires."""
        if self.mode is PipelineMode.DEGRADED:
            assert self._degraded_since is not None
            if self._clock() - self._degraded_since >= self.policy.degraded_hold_s:
                self._enter(PipelineMode.PROBING)

    def _enter(self, mode: PipelineMode) -> None:
        if mode is self.mode:
            return
        now = self._clock()
        previous = self.mode
        if previous is PipelineMode.DEGRADED and self._degraded_since is not None:
            self._degraded_acc += now - self._degraded_since
            self._degraded_since = None
        self.mode = mode
        if mode is PipelineMode.DEGRADED:
            self._degraded_since = now
        elif mode is PipelineMode.PROBING:
            # A probe judges fresh evidence, not the storm's residue:
            # restart the EMA at the exit threshold so PROBE_SAMPLES
            # clean hits decisively clear it (and misses re-trip it).
            self.miss_ema = self.policy.exit_miss_rate
            self._probe_seen = 0
        self.transitions.append((now, previous.value, mode.value))
        for listener in self._listeners:
            listener(previous, mode)
