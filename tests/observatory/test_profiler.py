"""Critical-path profiler: exact attribution, invariant, verdicts."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.experiments import run_flexgen
from repro.bench.systems import CC, pipellm
from repro.models import OPT_66B
from repro.observatory import (
    attribute_request,
    profile_hub,
    render_profile,
    render_waterfall,
)
from repro.telemetry import TelemetryHub, recording
from repro.telemetry.hub import RequestRecord
from repro.tracing import STAGE_CLASSES, class_totals
from repro.workloads import SyntheticShape


def make_record(request_id=0, size=1024, submit=0.0, complete=math.nan, **kw):
    record = RequestRecord(
        request_id=request_id, direction="h2d", addr=0, size=size,
        submit_time=submit,
    )
    record.complete_time = complete
    for key, value in kw.items():
        setattr(record, key, value)
    return record


def synthetic_hub(records):
    hub = TelemetryHub(enabled=True)
    hub.requests.extend(records)
    return hub


class TestSyntheticFixtures:
    def test_encryption_bound_fixture_exact(self):
        # 8 ms AES wait, 2 ms on the wire: 80/20 split, crypto regime.
        record = make_record(size=4096, complete=10e-3, outcome="miss")
        record.mark_stage("encrypt", 0.0, 8e-3)
        record.mark_stage("pcie", 8e-3, 10e-3)
        attribution = attribute_request(record)
        assert attribution.stages == {"encrypt": 8e-3, "pcie": 2e-3}
        assert attribution.total == 10e-3
        assert attribution.share("encrypt") == 0.8
        assert attribution.share("pcie") == 0.2

        profile = profile_hub(synthetic_hub([record]))
        assert profile.verdict == "encryption-bound"
        assert profile.totals == {"encrypt": 8e-3, "pcie": 2e-3}
        assert profile.by_class() == {"aes": 8e-3, "pcie": 2e-3}

    def test_pcie_bound_fixture_exact(self):
        # Staged hit: only transfer stages block, AES is off-path.
        record = make_record(size=4096, complete=5e-3, outcome="hit_now")
        record.mark_stage("wire-order", 0.0, 0.5e-3)
        record.mark_stage("control", 0.5e-3, 1e-3)
        record.mark_stage("pcie", 1e-3, 5e-3)
        profile = profile_hub(synthetic_hub([record]))
        assert profile.verdict == "pcie-bound"
        assert profile.by_class() == {"pcie": profile.total_blocked_s}
        assert profile.totals["pcie"] == 4e-3

    def test_interconnect_is_bridge_bound(self):
        # Inter-GPU bounce hops: the DMA legs dominate the inline AES.
        record = make_record(size=4096, complete=10e-3, outcome="hit_now")
        record.mark_stage("encrypt", 0.0, 1e-3)
        record.mark_stage("interconnect", 1e-3, 9e-3)
        record.mark_stage("decrypt", 9e-3, 10e-3)
        profile = profile_hub(synthetic_hub([record]))
        assert profile.verdict == "bridge-bound"
        assert set(profile.by_class()) == {"aes", "bridge"}

    def test_residual_lands_in_other(self):
        record = make_record(complete=10e-3)
        record.mark_stage("pcie", 0.0, 6e-3)
        attribution = attribute_request(record)
        assert attribution.stages["other"] == 10e-3 - 6e-3
        assert sum(attribution.stages.values()) == attribution.total

    def test_waterfall_keeps_record_order_with_other_last(self):
        record = make_record(complete=10e-3)
        record.mark_stage("pcie", 0.0, 2e-3)
        record.mark_stage("encrypt", 2e-3, 6e-3)
        rows = render_waterfall(attribute_request(record)).splitlines()[2:-1]
        assert [row.split()[0] for row in rows] == ["pcie", "encrypt", "other"]

    def test_incomplete_request_skipped(self):
        assert attribute_request(make_record()) is None
        profile = profile_hub(synthetic_hub([make_record()]))
        assert profile.requests == []
        assert profile.verdict == "idle"

    def test_compute_bound_needs_busy_gpu(self):
        record = make_record(complete=1e-3)
        record.mark_stage("encrypt", 0.0, 0.6e-3)
        record.mark_stage("pcie", 0.6e-3, 1e-3)
        hub = synthetic_hub([record])
        hub.tracer.enabled = True
        hub.tracer.record("gpu", "matmul", 0.0, 0.9)
        profile = profile_hub(hub, horizon=1.0)
        assert profile.compute_s == 0.9
        assert profile.by_class()["compute"] == 0.9
        assert profile.verdict == "compute-bound"

    def test_compute_sums_every_gpu_lane_clipped_to_the_horizon(self):
        record = make_record(complete=1e-3)
        record.mark_stage("pcie", 0.0, 1e-3)
        hub = synthetic_hub([record])
        hub.tracer.record("gpu", "compute", 0.0, 0.25)
        hub.tracer.record("gpu1", "compute", 0.0, 0.5)
        hub.tracer.record("gpu1", "compute", 0.5, 1.5)
        hub.tracer.record("gpu0.link.0-1.up", "xfer", 0.0, 0.75)
        profile = profile_hub(hub, horizon=1.0)
        assert profile.compute_s == 0.25 + 1.0
        assert profile.by_class() == {"pcie": 1e-3, "compute": 1.25}

    def test_speculation_account(self):
        hit = make_record(request_id=0, size=1000, complete=1e-3, outcome="hit_now")
        hit.mark_stage("pcie", 0.0, 1e-3)
        miss = make_record(request_id=1, size=1000, submit=1e-3, complete=3e-3,
                           outcome="miss")
        miss.mark_stage("encrypt", 1e-3, 2e-3)
        miss.mark_stage("pcie", 2e-3, 3e-3)
        profile = profile_hub(synthetic_hub([hit, miss]), enc_bandwidth=1e6)
        assert profile.speculation.hits == 1
        assert profile.speculation.misses == 1
        assert profile.speculation.hit_rate == 0.5
        assert profile.speculation.saved_s == 1000 / 1e6
        # Without the argument, the hub's own AES rate prices the account.
        hub = synthetic_hub([hit, miss])
        hub.enc_bandwidth = 2e6
        assert profile_hub(hub).speculation.saved_s == 1000 / 2e6


class TestAttributionInvariant:
    @given(
        intervals=st.lists(
            st.tuples(
                st.sampled_from(sorted(STAGE_CLASSES)),
                st.floats(min_value=1e-9, max_value=0.5),
            ),
            min_size=0,
            max_size=12,
        ),
        slack=st.floats(min_value=0.0, max_value=0.3),
    )
    @settings(max_examples=200, deadline=None)
    def test_stages_sum_to_wire_latency(self, intervals, slack):
        """sum(attribution.stages) == e2e latency for any tiling."""
        record = make_record()
        now = 0.0
        for stage, duration in intervals:
            record.mark_stage(stage, now, now + duration)
            now += duration
        record.complete_time = now + slack
        attribution = attribute_request(record)
        assert math.isclose(
            sum(attribution.stages.values()), attribution.total,
            rel_tol=1e-9, abs_tol=1e-15,
        )
        assert all(v >= 0.0 for v in attribution.stages.values())
        # The class fold behind the verdict neither drops nor adds time.
        assert math.isclose(
            sum(class_totals(attribution.stages.items()).values()),
            attribution.total, rel_tol=1e-9, abs_tol=1e-15,
        )


class TestRealRuns:
    def run_profiled(self, system):
        with recording():
            result, runtime = run_flexgen(
                system, OPT_66B, SyntheticShape(32, 4), batch_size=8, n_requests=8
            )
            machine = runtime.machine
            profile = profile_hub(
                machine.telemetry,
                enc_bandwidth=machine.params.enc_bandwidth_per_thread,
            )
        return profile

    def assert_invariant(self, profile):
        assert profile.requests
        for request in profile.requests:
            assert math.isclose(
                sum(request.stages.values()), request.total,
                rel_tol=1e-9, abs_tol=1e-15,
            )

    def test_cc_baseline_is_encryption_bound(self):
        profile = self.run_profiled(CC)
        self.assert_invariant(profile)
        assert profile.verdict == "encryption-bound"
        by_class = profile.by_class()
        assert by_class["aes"] > 0.5 * sum(by_class.values())

    def test_pipellm_is_not_encryption_bound(self):
        profile = self.run_profiled(pipellm(8, 2))
        self.assert_invariant(profile)
        assert profile.verdict != "encryption-bound"
        assert profile.speculation.hit_rate > 0.0
        assert profile.speculation.saved_s > 0.0

    def test_renderers_cover_required_content(self):
        profile = self.run_profiled(CC)
        report = render_profile(profile)
        assert "verdict: encryption-bound  (aes " in report
        assert "encrypt" in report and "pcie" in report
        waterfall = render_waterfall(profile.requests[0])
        assert "= wire latency" in waterfall
        assert f"request {profile.requests[0].request_id}" in waterfall
