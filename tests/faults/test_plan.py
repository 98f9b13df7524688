"""FaultPlan: validation, live window, and the storm factory."""

from dataclasses import replace

import pytest

from repro.faults import FaultPlan


class TestValidation:
    def test_defaults_inject_nothing(self):
        plan = FaultPlan()
        assert plan.engine_slowdown == 1.0 and plan.replica_crash_rate == 0.0
        assert all(getattr(plan, f"{name}_rate") == 0.0 for name in (
            "pcie_jitter", "pcie_drop", "engine_stall", "tag_corrupt",
            "iv_desync", "mispredict"))

    @pytest.mark.parametrize("field", [
        "pcie_jitter_rate", "pcie_drop_rate", "engine_stall_rate",
        "tag_corrupt_rate", "iv_desync_rate", "mispredict_rate",
    ])
    def test_rates_must_be_probabilities(self, field):
        with pytest.raises(ValueError):
            FaultPlan(**{field: 1.5})
        with pytest.raises(ValueError):
            FaultPlan(**{field: -0.1})

    def test_slowdown_below_nominal_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(engine_slowdown=0.5)

    def test_window_must_be_ordered(self):
        with pytest.raises(ValueError):
            FaultPlan(start=2.0, stop=1.0)

    def test_negative_durations_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(replica_recover_after=-1.0)


class TestWindow:
    def test_bounded_window(self):
        plan = FaultPlan(start=1.0, stop=2.0)
        assert not plan.active(0.5)
        assert plan.active(1.0)
        assert plan.active(1.999)
        assert not plan.active(2.0)

    def test_open_ended_window(self):
        plan = FaultPlan(start=0.5)
        assert not plan.active(0.0)
        assert plan.active(1e9)

    def test_windowed_returns_new_plan(self):
        plan = FaultPlan(mispredict_rate=0.3)
        shifted = replace(plan, start=5.0, stop=6.0)
        assert (shifted.start, shifted.stop) == (5.0, 6.0)
        assert shifted.mispredict_rate == 0.3
        assert not shifted.active(4.9) and shifted.active(5.5) and not shifted.active(6.0)
        assert plan.stop is None  # original untouched (frozen)



class TestStorm:
    def test_storm_shape(self):
        plan = FaultPlan.storm(0.4, start=0.1, stop=0.9)
        assert plan.mispredict_rate == 0.4
        assert plan.iv_desync_rate == pytest.approx(0.1)
        assert plan.tag_corrupt_rate == pytest.approx(0.1)
        assert (plan.start, plan.stop) == (0.1, 0.9)

    def test_zero_storm_is_clean(self):
        plan = FaultPlan.storm(0.0)
        assert plan.mispredict_rate == plan.iv_desync_rate == plan.tag_corrupt_rate == 0.0
