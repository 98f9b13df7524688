"""TelemetryHub behaviour: gating, retention, lifecycle records."""

import math

import pytest

from repro.cc import CcMode, build_machine
from repro.core import PipeLLMConfig, PipeLLMRuntime
from repro.hw import MB
from repro.telemetry import (
    IvEvent,
    SpeculationEvent,
    TelemetryHub,
    TransferEvent,
    recording,
    trace_collector,
)

LAYER = 8 * MB


def make_runtime(**cfg):
    machine = build_machine(CcMode.ENABLED, enc_threads=4, dec_threads=2)
    runtime = PipeLLMRuntime(machine, PipeLLMConfig(**cfg) if cfg else None)
    return machine, runtime


def drive(machine, generator):
    machine.sim.process(generator)
    machine.run()
    assert machine.gpu.auth_failures == 0


def swap_loop(machine, runtime, iterations=6):
    region = machine.host_memory.allocate(LAYER, "layer.0", b"weights")
    runtime.hint_weight_chunk_size(LAYER)

    def app():
        for _ in range(iterations):
            handle = runtime.memcpy_h2d(machine.host_memory.chunk_at(region.addr))
            yield handle.complete
            yield machine.sim.timeout(1e-3)

    drive(machine, app())


class TestGating:
    def test_disabled_by_default(self):
        machine = build_machine(CcMode.ENABLED)
        assert not machine.telemetry.enabled
        assert not machine.telemetry.tracer.enabled

    def test_disabled_retains_nothing(self):
        machine, runtime = make_runtime()
        swap_loop(machine, runtime)
        hub = machine.telemetry
        assert hub.events == []
        assert hub.requests == []
        assert machine.telemetry.tracer.spans == []

    def test_counters_live_while_disabled(self):
        machine, runtime = make_runtime()
        swap_loop(machine, runtime)
        assert runtime.validator.requests > 0
        assert machine.metrics.counter("validator.hits").value == runtime.validator.hits
        assert machine.metrics.counter("pipeline.staged_total").value > 0

    def test_emit_noop_when_disabled(self):
        hub = TelemetryHub()
        hub.emit(TransferEvent(0.0, "h2d", 0, 1024))
        assert hub.events == []
        assert hub.begin_request("h2d", 0, 1024, 0.0) is None

    def test_enable_propagates_to_tracer(self):
        machine = build_machine(CcMode.ENABLED)
        machine.telemetry.enabled = True
        assert machine.telemetry.tracer.enabled
        machine.telemetry.enabled = False
        assert not machine.telemetry.tracer.enabled


class TestEventBus:
    def test_emit_and_filter(self):
        hub = TelemetryHub(enabled=True)
        hub.emit(TransferEvent(0.0, "h2d", 4096, 1024))
        hub.emit(SpeculationEvent(1.0, "stage", 4096, 1024, 7))
        assert len(hub.events) == 2
        assert [e.iv for e in hub.events_of(SpeculationEvent)] == [7]
        assert hub.events_of(IvEvent) == []

    def test_event_kind_and_args(self):
        event = SpeculationEvent(1.0, "stage", 4096, 1024, 7)
        assert event.kind == "speculation"
        args = event.args()
        assert args["action"] == "stage" and "time" not in args

    def test_subscriber_sees_events(self):
        hub = TelemetryHub(enabled=True)
        seen = []
        hub.subscribe(seen.append)
        event = TransferEvent(0.0, "h2d", 0, 1)
        hub.emit(event)
        assert seen == [event]

    def test_max_events_drops_and_counts(self):
        hub = TelemetryHub(enabled=True)
        hub.max_events = 2
        for i in range(5):
            hub.emit(TransferEvent(float(i), "h2d", 0, 1))
        assert len(hub.events) == 2
        assert hub.dropped_events == 3


class TestRequestRecords:
    def test_lifecycle_latencies(self):
        hub = TelemetryHub(enabled=True)
        record = hub.begin_request("h2d", 4096, LAYER, 1.0, tag="w")
        assert math.isnan(record.api_done_time)
        hub.mark_api_done(record, 1.5)
        hub.mark_complete(record, 3.0)
        assert record.api_done_time - record.submit_time == pytest.approx(0.5)
        assert record.wire_latency == pytest.approx(2.0)
        snap = hub.metrics.snapshot()
        assert snap["telemetry.h2d_wire_s.count"] == 1.0
        assert snap["telemetry.transfer_bytes.count"] == 1.0

    def test_request_ids_increment(self):
        hub = TelemetryHub(enabled=True)
        a = hub.begin_request("h2d", 0, 1, 0.0)
        b = hub.begin_request("d2h", 0, 1, 0.0)
        assert (a.request_id, b.request_id) == (0, 1)

    def test_records_stitched_by_runtime(self):
        machine, runtime = make_runtime()
        machine.telemetry.enable()
        swap_loop(machine, runtime)
        hub = machine.telemetry
        assert len(hub.requests) == 6
        swaps = [r for r in hub.requests if r.kind == "swap"]
        assert swaps, "no swap records"
        for record in swaps:
            assert record.outcome in ("hit_now", "hit_future", "stale", "miss")
            assert record.strategy in ("staged", "ondemand", "inline")
            assert record.commit_iv >= 0
            assert not math.isnan(record.complete_time)
        d = swaps[0].as_dict()
        assert d["direction"] == "h2d" and d["size"] == LAYER

    def test_outcome_counts_agree_with_validator(self):
        machine, runtime = make_runtime()
        machine.telemetry.enable()
        swap_loop(machine, runtime, iterations=8)
        counts = machine.telemetry.outcome_counts()
        stats = runtime.stats()
        assert counts.get("hit_now", 0) == stats["hits"]
        assert counts.get("hit_future", 0) == stats["future_hits"]
        assert counts.get("stale", 0) == stats["stale"]
        assert counts.get("miss", 0) == stats["misses"]
        assert sum(counts.values()) == stats["swap_requests"]
        assert machine.telemetry.success_rate() == pytest.approx(stats["success_rate"])

    def test_legacy_counter_properties_still_served(self):
        machine, runtime = make_runtime()
        swap_loop(machine, runtime)
        stats = runtime.stats()
        assert stats["staged_total"] == machine.telemetry.metrics.counter(
            "pipeline.staged_total"
        ).value
        assert runtime.nops_sent == machine.metrics.counter("runtime.nops_sent").value


class TestRecordingSession:
    def test_registers_machines_built_inside(self):
        with recording() as session:
            machine = build_machine(CcMode.ENABLED)
        assert machine.telemetry in session.hubs
        assert machine.telemetry.enabled
        assert machine.telemetry.label == "machine-0"

    def test_inactive_outside_block(self):
        with recording():
            assert trace_collector(object()) is not None
        assert trace_collector(object()) is None
        machine = build_machine(CcMode.ENABLED)
        assert not machine.telemetry.enabled

    def test_max_events_applied_to_hubs(self):
        with recording(max_events_per_hub=3) as session:
            machine = build_machine(CcMode.ENABLED)
        assert machine.telemetry.max_events == 3
        assert session.max_events_per_hub == 3

    def test_nested_sessions_both_see_a_machine(self):
        with recording(max_events_per_hub=5) as outer:
            with recording(max_events_per_hub=3) as inner:
                machine = build_machine(CcMode.ENABLED)
        assert outer.hubs == inner.hubs == [machine.telemetry]
        assert machine.telemetry.max_events == 3  # the tightest cap

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="max_events_per_hub"):
            with recording(max_events_per_hub=-1):
                pass
        assert trace_collector(object()) is None

    def test_one_collector_per_simulator(self):
        from repro.sim import Simulator

        assert trace_collector(Simulator()) is None
        a, b = Simulator(), Simulator()
        with recording() as outer:
            with recording() as inner:
                col_a = trace_collector(a)
                assert trace_collector(a) is col_a
            col_b = trace_collector(b)
        assert col_b is not col_a
        assert outer.collectors == [col_a, col_b]
        assert inner.collectors == [col_a]
