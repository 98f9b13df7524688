"""SLO burn-rate alerting over the telemetry stream.

The classic SRE construction, driven purely by *simulated* time: an
SLO grants an error budget (e.g. 10% of requests may miss their
TTFT/TPOT targets); the **burn rate** of a trailing window is the
window's error fraction divided by that budget. A burn rate of 1.0
spends the budget exactly on schedule; sustained rates far above it
page. Requiring *two* windows — a long one for significance and a
short one for recency — keeps the engine silent through both brief
blips (short window trips, long does not) and long-healed incidents
(long window still polluted, short window clean).

Two rule families feed one :class:`AlertEngine`:

* :class:`BurnRateRule` — consumes explicit pass/fail SLO samples
  (the serving front end reports one per completion or shed);
* :class:`EventRule` — watches the typed event stream for anomaly
  bursts: GCM auth-failure recoveries, IV resyncs, degradation-mode
  flapping — counted over a trailing window.

Every firing appends a typed :class:`Alert` record and, when the
engine owns a hub, emits an :class:`~repro.telemetry.events.AlertEvent`
on the bus (its own ``alerts`` lane in Chrome exports), which is also
what arms the flight recorder's snapshot trigger.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..telemetry.events import AlertEvent, RecoveryEvent, TelemetryEvent

__all__ = [
    "Alert",
    "AlertEngine",
    "BurnRateRule",
    "EventRule",
    "default_event_rules",
]


@dataclass(frozen=True)
class BurnRateRule:
    """Multi-window burn-rate rule over one pass/fail SLO signal."""

    name: str
    #: Which sample stream this rule consumes ("slo", "ttft", ...).
    signal: str
    #: Allowed error fraction (1 - SLO target), the budget burn is
    #: measured against.
    budget: float
    long_window: float
    short_window: float
    #: Both windows must burn at ≥ this multiple of the budget.
    threshold: float = 2.0
    #: Minimum long-window samples before the rule may fire (a single
    #: early failure is 100% error fraction, not an incident).
    min_samples: int = 8
    cooldown: float = 0.0
    severity: str = "page"


@dataclass(frozen=True)
class EventRule:
    """Trailing-window count rule over recovery-event anomalies."""

    name: str
    #: :class:`RecoveryEvent` actions this rule counts.
    actions: Tuple[str, ...]
    window: float
    #: Fire when ≥ this many matching events land inside the window.
    threshold: int
    cooldown: float = 0.0
    severity: str = "page"


@dataclass(frozen=True)
class Alert:
    """One rule firing, stamped with simulated time."""

    time: float
    rule: str
    severity: str
    burn_rate: float
    window_s: float
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "rule": self.rule,
            "severity": self.severity,
            "burn_rate": self.burn_rate,
            "window_s": self.window_s,
            "detail": self.detail,
        }


def default_event_rules(
    window: float = 1.0, cooldown: Optional[float] = None
) -> Tuple[EventRule, ...]:
    """The standard anomaly rules, dimensioned to one timescale.

    ``window`` should be a fraction of the run being watched (the
    fault campaign passes ~40% of its measured window); ``cooldown``
    defaults to the window so one incident pages once, not per event.
    """
    cooldown = window if cooldown is None else cooldown
    return (
        # GCM tag-validation failures surviving via re-encryption: one
        # is noise, a burst is an integrity incident.
        EventRule("auth-anomaly", ("auth-recover",), window, 3, cooldown),
        # IV-stream desync resyncs: the audit invariant held, but the
        # stream needed repair more than once in quick succession.
        EventRule("iv-anomaly", ("resync",), window, 2, cooldown),
        # Speculative→degraded→probing controller flapping: four mode
        # changes inside one window means it cannot hold a regime.
        EventRule(
            "mode-flap", ("degrade", "probe", "restore"), window, 4, cooldown
        ),
    )


class AlertEngine:
    """Evaluates burn-rate and anomaly rules as signals arrive.

    Evaluation is event-driven — every observed sample or event
    carries its simulated timestamp, so the engine never reads a
    clock of its own and replays byte-identically under one seed.
    """

    def __init__(
        self,
        hub=None,
        slo_rules: Tuple[BurnRateRule, ...] = (),
        event_rules: Tuple[EventRule, ...] = (),
        max_samples: int = 4096,
    ) -> None:
        #: Optional hub AlertEvents are emitted on (the bus lane).
        self.hub = hub
        self.slo_rules = tuple(slo_rules)
        self.event_rules = tuple(event_rules)
        self.alerts: List[Alert] = []
        self._samples: Dict[str, Deque[Tuple[float, bool]]] = {}
        self._event_times: Dict[str, Deque[float]] = {
            rule.name: deque() for rule in self.event_rules
        }
        self._last_fired: Dict[str, float] = {}
        self._max_samples = max_samples

    # -- wiring ----------------------------------------------------------

    def watch(self, hub) -> None:
        """Subscribe to one hub's event stream (anomaly rules)."""
        hub.subscribe(self.observe_event)

    # -- signal intake ---------------------------------------------------

    def observe_slo(self, time: float, ok: bool, signal: str = "slo") -> None:
        """One pass/fail SLO sample (e.g. a completion's attainment)."""
        samples = self._samples.get(signal)
        if samples is None:
            samples = self._samples[signal] = deque(maxlen=self._max_samples)
        samples.append((time, bool(ok)))
        for rule in self.slo_rules:
            if rule.signal == signal:
                self._evaluate_burn(rule, time)

    def observe_event(self, event: TelemetryEvent) -> None:
        """Bus subscriber: feed anomaly rules from recovery events."""
        if not isinstance(event, RecoveryEvent):
            return
        for rule in self.event_rules:
            if event.action in rule.actions:
                self._evaluate_count(rule, event.time, event.action)

    # -- evaluation ------------------------------------------------------

    def _burn(self, signal: str, now: float, window: float) -> Tuple[float, int]:
        """(burn numerator = error fraction, sample count) of a window."""
        total = bad = 0
        for time, ok in reversed(self._samples.get(signal, ())):
            if time < now - window:
                break
            total += 1
            bad += not ok
        return (bad / total if total else 0.0), total

    def _evaluate_burn(self, rule: BurnRateRule, now: float) -> None:
        if not self._cooled(rule.name, now, rule.cooldown):
            return
        long_frac, long_n = self._burn(rule.signal, now, rule.long_window)
        short_frac, _ = self._burn(rule.signal, now, rule.short_window)
        if long_n < rule.min_samples:
            return
        long_burn = long_frac / rule.budget
        short_burn = short_frac / rule.budget
        if long_burn >= rule.threshold and short_burn >= rule.threshold:
            self._fire(rule.name, rule.severity, now, long_burn,
                       rule.long_window,
                       f"signal={rule.signal} short_burn={short_burn:.2f}")

    def _evaluate_count(self, rule: EventRule, now: float, action: str) -> None:
        times = self._event_times[rule.name]
        times.append(now)
        while times and times[0] < now - rule.window:
            times.popleft()
        if not self._cooled(rule.name, now, rule.cooldown):
            return
        if len(times) >= rule.threshold:
            self._fire(rule.name, rule.severity, now,
                       len(times) / max(rule.threshold, 1), rule.window,
                       f"action={action} count={len(times)}")

    def _cooled(self, name: str, now: float, cooldown: float) -> bool:
        last = self._last_fired.get(name)
        return last is None or now - last >= cooldown

    def _fire(
        self, name: str, severity: str, now: float, burn: float,
        window: float, detail: str,
    ) -> None:
        self._last_fired[name] = now
        alert = Alert(now, name, severity, burn, window, detail)
        self.alerts.append(alert)
        if self.hub is not None:
            self.hub.metrics.counter("alerts.fired").add()
            self.hub.metrics.counter(f"alerts.{name}").add()
            self.hub.emit(AlertEvent(
                time=now, rule=name, severity=severity, burn_rate=burn,
                window_s=window, detail=detail,
            ))
