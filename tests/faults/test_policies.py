"""RetryPolicy backoff and the DegradationController state machine."""

import pytest

from repro.faults import DegradationController, FaultPolicy, PipelineMode, RetryPolicy
from repro.faults.policies import PROBE_SAMPLES


class TestRetryPolicy:
    def test_exponential_backoff_with_ceiling(self):
        policy = RetryPolicy(max_attempts=8, base_delay_s=10e-6,
                             multiplier=2.0, max_delay_s=50e-6)
        assert policy.delay(1) == pytest.approx(10e-6)
        assert policy.delay(2) == pytest.approx(20e-6)
        assert policy.delay(3) == pytest.approx(40e-6)
        assert policy.delay(4) == pytest.approx(50e-6)  # clamped
        assert policy.delay(7) == pytest.approx(50e-6)

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)


class TestFaultPolicyValidation:
    def test_thresholds_must_be_ordered(self):
        with pytest.raises(ValueError):
            FaultPolicy(enter_miss_rate=0.1, exit_miss_rate=0.2)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            FaultPolicy(ema_alpha=0.0)
        with pytest.raises(ValueError):
            FaultPolicy(ema_alpha=1.5)

    def test_timeout_must_be_positive_or_none(self):
        FaultPolicy(request_timeout_s=None)
        FaultPolicy(request_timeout_s=0.5)
        with pytest.raises(ValueError):
            FaultPolicy(request_timeout_s=0.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def controller(**kw):
    clock = FakeClock()
    policy = FaultPolicy(**kw)
    return DegradationController(policy, clock=clock), clock, policy


class TestDegradationController:
    def test_starts_speculative(self):
        ctl, _, _ = controller()
        assert ctl.mode is PipelineMode.SPECULATIVE
        assert ctl.speculation_enabled
        assert ctl.switches == 0

    def test_cold_start_misses_do_not_degrade(self):
        ctl, _, policy = controller(min_samples=12)
        for _ in range(policy.min_samples - 1):
            ctl.observe(False)
        assert ctl.mode is PipelineMode.SPECULATIVE

    def test_sustained_misses_degrade(self):
        ctl, _, _ = controller()
        for _ in range(30):
            ctl.observe(False)
        assert ctl.mode is PipelineMode.DEGRADED
        assert not ctl.speculation_enabled
        assert ctl.transitions[0][1:] == ("speculative", "degraded")

    def test_all_hits_never_degrade(self):
        ctl, _, _ = controller()
        for _ in range(200):
            ctl.observe(True)
        assert ctl.mode is PipelineMode.SPECULATIVE
        assert ctl.switches == 0

    def test_degraded_ignores_observations_until_hold(self):
        ctl, clock, policy = controller()
        for _ in range(30):
            ctl.observe(False)
        assert ctl.mode is PipelineMode.DEGRADED
        ctl.poll()  # hold not yet elapsed
        assert ctl.mode is PipelineMode.DEGRADED
        clock.now += policy.degraded_hold_s
        ctl.poll()
        assert ctl.mode is PipelineMode.PROBING

    def test_clean_probe_restores_speculation(self):
        ctl, clock, policy = controller()
        for _ in range(30):
            ctl.observe(False)
        clock.now += policy.degraded_hold_s
        ctl.poll()
        for _ in range(PROBE_SAMPLES):
            ctl.observe(True)
        assert ctl.mode is PipelineMode.SPECULATIVE
        assert [t[1:] for t in ctl.transitions] == [
            ("speculative", "degraded"),
            ("degraded", "probing"),
            ("probing", "speculative"),
        ]

    def test_dirty_probe_redegrades(self):
        ctl, clock, policy = controller()
        for _ in range(30):
            ctl.observe(False)
        clock.now += policy.degraded_hold_s
        ctl.poll()
        for _ in range(30):
            ctl.observe(False)
        assert ctl.mode is PipelineMode.DEGRADED
        assert ctl.transitions[-1][1:] == ("probing", "degraded")

    def test_degraded_seconds_accumulates(self):
        ctl, clock, policy = controller(degraded_hold_s=0.05)
        for _ in range(30):
            ctl.observe(False)
        clock.now += 0.03
        assert ctl.degraded_seconds() == pytest.approx(0.03)
        clock.now += 0.02
        ctl.poll()  # -> PROBING, accumulator frozen
        clock.now += 1.0
        assert ctl.degraded_seconds() == pytest.approx(0.05)

    def test_listener_fires_on_every_transition(self):
        ctl, clock, policy = controller()
        seen = []
        ctl.on_transition(lambda prev, mode: seen.append((prev, mode)))
        for _ in range(30):
            ctl.observe(False)
        clock.now += policy.degraded_hold_s
        ctl.poll()
        assert seen == [
            (PipelineMode.SPECULATIVE, PipelineMode.DEGRADED),
            (PipelineMode.DEGRADED, PipelineMode.PROBING),
        ]

    def test_unreachable_threshold_pins_speculative(self):
        # The campaign's pinned-speculative policy: an EMA can never
        # reach 1.0, so the controller must never change mode.
        ctl, _, _ = controller(enter_miss_rate=1.0, exit_miss_rate=0.1)
        for _ in range(500):
            ctl.observe(False)
        assert ctl.mode is PipelineMode.SPECULATIVE
        assert ctl.switches == 0
