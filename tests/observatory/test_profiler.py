"""Critical-path profiler: exact attribution, invariant, verdicts."""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.experiments import run_flexgen, run_vllm
from repro.bench.systems import CC, WITHOUT_CC, pipellm
from repro.cc import CcMode, build_machine
from repro.core import PipeLLMConfig, PipeLLMRuntime
from repro.faults import FaultInjector, FaultPlan
from repro.hw import GB, MB
from repro.models import OPT_30B, OPT_66B
from repro.parallel import LinkSpeculator, TensorParallelEngine
from repro.observatory import (
    attribute_request,
    profile_hub,
    render_profile,
    render_waterfall,
)
from repro.telemetry import TelemetryHub, recording
from repro.telemetry.hub import RequestRecord
from repro.tracing import STAGE_CLASSES, class_totals
from repro.workloads import SHAREGPT, SyntheticShape


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


def _vllm(system):
    # Long enough for KV pressure: swap-outs and staged swap-ins.
    run_vllm(system, OPT_30B, SHAREGPT, 4.0, 6, 8.0, reserve_bytes=1 * GB)


def _mispredicted_sweep():
    # Every prediction sabotaged: on-demand misses, then degraded mode.
    plan = FaultPlan(name="always-wrong", mispredict_rate=1.0)
    machine = build_machine(CcMode.ENABLED, enc_threads=8, dec_threads=2,
                            faults=FaultInjector(plan, seed=7))
    runtime = PipeLLMRuntime(machine)
    runtime.hint_weight_chunk_size(MB)
    layers = [machine.host_memory.allocate(MB, f"layer.{i}", b"w") for i in range(6)]

    def app():
        for _ in range(10):
            for layer in layers:
                yield runtime.memcpy_h2d(layer.chunk()).complete

    machine.sim.process(app())
    machine.run()


def _reordered_swap_ins():
    # Fig. 6: the highest staged IV is requested before the lowest, so
    # it is suspended to the batch boundary.
    machine = build_machine(CcMode.ENABLED, enc_threads=4, dec_threads=2)
    runtime = PipeLLMRuntime(machine, PipeLLMConfig(kv_depth=8, depth=8))
    blocks = [machine.host_memory.allocate(4 * MB, f"kv.{i}") for i in range(3)]

    def app():
        for block in blocks:
            yield runtime.memcpy_d2h(block.chunk()).api_done
        yield runtime.synchronize()
        yield machine.sim.timeout(0.2)
        low, _mid, high = sorted(runtime.pipeline.valid_entries, key=lambda e: e.iv)
        for entry in (high, low):
            yield runtime.memcpy_h2d(machine.host_memory.chunk_at(entry.chunk.addr)).api_done
        yield runtime.synchronize()

    machine.sim.process(app())
    machine.run()


def _tp2(mode, speculate=False):
    machine = build_machine(mode, n_gpus=2, enc_threads=8, dec_threads=8)
    if speculate:
        machine.interconnect.attach_speculator(LinkSpeculator(lambda: machine.sim.now))
    TensorParallelEngine(machine, OPT_30B, batch=8).run(output_tokens=2)


SCENARIOS = {
    "w/o-cc": lambda: _vllm(WITHOUT_CC),
    "cc": lambda: _vllm(CC),
    "pipellm": lambda: _vllm(pipellm(1, 1)),
    "pipellm-faults": _mispredicted_sweep,
    "pipellm-reordered": _reordered_swap_ins,
    "fabric-p2p": lambda: _tp2(CcMode.DISABLED),
    "fabric-cc": lambda: _tp2(CcMode.ENABLED),
    "fabric-pipellm": lambda: _tp2(CcMode.ENABLED, speculate=True),
}


@functools.lru_cache(maxsize=None)
def scenario_records(name):
    with recording() as session:
        SCENARIOS[name]()
    return [record for hub in session.hubs for record in hub.requests]


class TestEveryPathTiles:
    """Each transfer path's stage intervals tile its wire latency.

    ``attribute_request`` books any gap as ``other``, so the profiler
    invariant above holds for any record; this checks the marks
    themselves: contiguous, ending at ``complete_time`` and starting at
    ``submit_time``.
    """

    @pytest.mark.parametrize("scenario, direction, strategy", [
        ("w/o-cc", "h2d", "native"),
        ("w/o-cc", "d2h", "native"),
        ("cc", "h2d", "inline"),
        ("cc", "d2h", "inline"),
        ("pipellm", "h2d", "staged"),
        ("pipellm", "h2d", "inline"),  # control traffic
        ("pipellm", "d2h", "sync-decrypt"),
        # The deferred decryption runs after landing, off the wire
        # path by design, so it is no stage and the pcie stage ends it.
        ("pipellm", "d2h", "async-decrypt"),
        ("pipellm-faults", "h2d", "ondemand"),
        ("pipellm-faults", "h2d", "degraded"),
        ("pipellm-reordered", "h2d", "staged"),  # one of them deferred
        ("fabric-p2p", "link", "native"),
        ("fabric-cc", "link", "serialized"),
        ("fabric-pipellm", "link", "staged"),
        ("fabric-pipellm", "link", "miss"),
    ])
    def test_stages_tile_the_wire_latency(self, scenario, direction, strategy):
        records = [r for r in scenario_records(scenario)
                   if r.direction == direction and r.strategy == strategy]
        assert records
        for record in records:
            stages = record.stages
            assert stages, record
            for (_, _, end), (_, start, _) in zip(stages, stages[1:]):
                assert start == end, record
            assert stages[-1][2] == record.complete_time, record
            if record.deferred:
                # It waits for its batch boundary before its first stage.
                assert stages[0][1] >= record.submit_time, record
            else:
                assert stages[0][1] == record.submit_time, record
