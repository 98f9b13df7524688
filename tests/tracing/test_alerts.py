"""AlertEngine: multi-window burn rules, anomaly count rules, wiring."""

from repro.sim import Simulator
from repro.telemetry.events import AlertEvent, RecoveryEvent
from repro.telemetry.hub import TelemetryHub
from repro.tracing import (
    AlertEngine,
    BurnRateRule,
    EventRule,
    default_event_rules,
)


def _burn_engine(**overrides):
    rule = BurnRateRule(
        name="slo-burn", signal="slo", budget=0.1,
        long_window=10.0, short_window=2.0, threshold=2.0,
        min_samples=4, cooldown=overrides.pop("cooldown", 0.0),
    )
    return AlertEngine(slo_rules=(rule,), **overrides)


def test_burn_fires_when_both_windows_exceed_threshold():
    eng = _burn_engine()
    # 4 failures in a row: long = short = 100% error / 10% budget = 10x.
    for i in range(4):
        eng.observe_slo(float(i) * 0.1, ok=False)
    assert len(eng.alerts) >= 1
    alert = eng.alerts[0]
    assert alert.rule == "slo-burn" and alert.burn_rate >= 2.0


def test_burn_silent_below_min_samples():
    eng = _burn_engine()
    for i in range(3):  # min_samples is 4
        eng.observe_slo(float(i) * 0.1, ok=False)
    assert eng.alerts == []


def test_burn_needs_recent_failures_too():
    """Long window polluted but short window clean → no page (the
    incident already healed)."""
    eng = _burn_engine()
    for i in range(6):
        eng.observe_slo(float(i) * 0.1, ok=False)  # old burst
    eng.alerts.clear()
    eng._last_fired.clear()
    # 3s later: short window (2s) holds only passing samples.
    for i in range(8):
        eng.observe_slo(3.5 + i * 0.1, ok=True)
    assert eng.alerts == []


def test_burn_silent_on_healthy_stream():
    eng = _burn_engine()
    for i in range(50):
        # ~5% errors, spread out (never at the head where one failure
        # dominates a sparsely populated window): burn < 2x budget.
        eng.observe_slo(i * 0.1, ok=(i % 20 != 10))
    assert eng.alerts == []


def test_burn_cooldown_rate_limits():
    eng = _burn_engine(cooldown=5.0)
    for i in range(40):
        eng.observe_slo(i * 0.1, ok=False)  # 4s of continuous failure
    assert len(eng.alerts) == 1


def test_event_rule_threshold_and_window():
    rule = EventRule("auth-anomaly", ("auth-recover",), window=1.0, threshold=3)
    eng = AlertEngine(event_rules=(rule,))
    emit = lambda t: eng.observe_event(
        RecoveryEvent(time=t, action="auth-recover", request_id=0)
    )
    emit(0.0)
    emit(2.0)  # first fell out of the window
    emit(2.5)
    assert eng.alerts == []
    emit(2.9)  # three within [1.9, 2.9]
    assert len(eng.alerts) == 1
    assert eng.alerts[0].rule == "auth-anomaly"


def test_default_event_rules_thresholds():
    rules = {r.name: r for r in default_event_rules(window=2.0)}
    assert rules["auth-anomaly"].threshold == 3
    assert rules["iv-anomaly"].threshold == 2
    assert rules["mode-flap"].threshold == 4
    assert set(rules["mode-flap"].actions) == {"degrade", "probe", "restore"}
    # Cooldown defaults to the window: one incident pages once.
    assert all(r.cooldown == 2.0 for r in rules.values())


def test_non_recovery_events_ignored():
    rule = EventRule("auth-anomaly", ("auth-recover",), window=1.0, threshold=1)
    eng = AlertEngine(event_rules=(rule,))
    eng.observe_event(AlertEvent(time=0.0, rule="x", severity="page",
                                 burn_rate=1.0, window_s=1.0))
    assert eng.alerts == []


def test_firing_emits_alert_event_and_counters_on_hub():
    sim = Simulator()
    hub = TelemetryHub(sim, label="m0")
    hub.enabled = True
    rule = EventRule("iv-anomaly", ("resync",), window=1.0, threshold=2)
    eng = AlertEngine(hub=hub, event_rules=(rule,))
    eng.watch(hub)
    for t in (0.1, 0.2):
        hub.emit(RecoveryEvent(time=t, action="resync", request_id=0))
    assert len(eng.alerts) == 1
    fired = [e for e in hub.events if isinstance(e, AlertEvent)]
    assert len(fired) == 1 and fired[0].rule == "iv-anomaly"
    assert hub.metrics.counter("alerts.fired").value == 1
    assert hub.metrics.counter("alerts.iv-anomaly").value == 1


def test_session_watchers_compose():
    """Recorder + engine must compose on one session: each watcher
    sees every hub, present and future, in the order it was added."""
    from repro.telemetry import recording
    from repro.tracing import FlightRecorder

    rule = EventRule("iv-anomaly", ("resync",), window=1.0, threshold=1)
    eng = AlertEngine(event_rules=(rule,))
    recorder = FlightRecorder(ring_size=8)
    seen = []
    with recording() as session:
        sim = Simulator()
        early = TelemetryHub(sim, label="early")
        session.register(early)  # registered before any watcher
        session.watch(lambda hub: seen.append(("first", hub.label)))
        session.watch(eng.watch)
        session.watch(recorder.watch)
        session.watch(lambda hub: seen.append(("last", hub.label)))
        hub = TelemetryHub(sim, label="late")
        session.register(hub)  # registered after every watcher
        hub.emit(RecoveryEvent(time=0.5, action="resync", request_id=1))
    assert seen == [
        ("first", "early"), ("last", "early"), ("first", "late"), ("last", "late"),
    ]
    assert len(eng.alerts) == 1
    assert "late" in recorder.rings and len(recorder.rings["late"]) == 1
    assert "early" in recorder.rings and not recorder.rings["early"]
