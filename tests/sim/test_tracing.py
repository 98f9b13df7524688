"""Span-tracer and Gantt-rendering tests."""

import pytest

from repro.cc import CcMode, CudaContext, build_machine
from repro.sim import Simulator, SpanTracer, render_gantt


class TestSpanTracer:
    def test_record_and_busy_time(self):
        tracer = SpanTracer()
        tracer.record("gpu", "compute", 0.0, 1.0)
        tracer.record("gpu", "compute", 2.0, 2.5)
        tracer.record("enc", "job", 0.0, 3.0)
        assert tracer.busy_time("gpu") == pytest.approx(1.5)
        assert tracer.lanes() == ["gpu", "enc"]

    def test_overlapping_spans_all_retained(self):
        tracer = SpanTracer()
        tracer.record("lane", "a", 0.0, 2.0)
        tracer.record("lane", "a", 1.0, 3.0)
        assert len(tracer.spans) == 2
        assert tracer.busy_time("lane") == pytest.approx(4.0)

    def test_zero_duration_span_allowed(self):
        tracer = SpanTracer()
        tracer.record("lane", "tick", 1.0, 1.0)
        assert tracer.spans[0].duration == 0.0

    def test_disabled_records_nothing(self):
        tracer = SpanTracer(enabled=False)
        tracer.record("gpu", "c", 0.0, 1.0)
        assert tracer.spans == []

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            SpanTracer().record("l", "x", 2.0, 1.0)


class TestRenderGantt:
    def test_empty(self):
        assert "no spans" in render_gantt(SpanTracer())

    def test_lanes_and_glyphs(self):
        tracer = SpanTracer()
        tracer.record("gpu", "compute", 0.0, 0.5)
        tracer.record("enc", "job", 0.5, 1.0)
        text = render_gantt(tracer, width=20)
        assert "gpu" in text and "enc" in text
        assert "c" in text and "j" in text

    def test_overlap_marked(self):
        tracer = SpanTracer()
        tracer.record("lane", "a", 0.0, 1.0)
        tracer.record("lane", "b", 0.0, 1.0)
        assert "#" in render_gantt(tracer, width=10)

    def test_lane_filter(self):
        tracer = SpanTracer()
        tracer.record("keep", "a", 0.0, 1.0)
        tracer.record("drop", "b", 0.0, 1.0)
        text = render_gantt(tracer, lanes=["keep"])
        assert "keep" in text and "drop" not in text

    def test_lane_prefix_filter(self):
        tracer = SpanTracer()
        tracer.record("pcie.h2d", "t", 0.0, 1.0)
        tracer.record("pcie.d2h", "t", 0.0, 1.0)
        tracer.record("gpu", "c", 0.0, 1.0)
        text = render_gantt(tracer, lane_prefix="pcie")
        assert "pcie.h2d" in text and "pcie.d2h" in text and "gpu" not in text

    def test_lane_prefix_no_match(self):
        tracer = SpanTracer()
        tracer.record("gpu", "c", 0.0, 1.0)
        assert "no matching lanes" in render_gantt(tracer, lane_prefix="pcie")

    def test_explicit_lanes_override_prefix(self):
        tracer = SpanTracer()
        tracer.record("gpu", "c", 0.0, 1.0)
        text = render_gantt(tracer, lanes=["gpu"], lane_prefix="pcie")
        assert "gpu" in text


class TestIntegration:
    def test_disabled_by_default(self):
        # Lane spans belong to the machine's hub, never to the kernel.
        assert not hasattr(Simulator(), "tracer")
        assert not build_machine(CcMode.ENABLED).telemetry.tracer.enabled

    def test_machine_run_records_spans_when_enabled(self):
        machine = build_machine(CcMode.ENABLED)
        machine.telemetry.tracer.enabled = True
        ctx = CudaContext(machine)
        region = machine.host_memory.allocate(1 << 20, "w", b"x")

        def app():
            handle = ctx.memcpy_h2d(region.chunk())
            yield handle.complete
            yield machine.gpu.compute(1e9, 1e6)

        machine.sim.process(app())
        machine.run()
        lanes = machine.telemetry.tracer.lanes()
        assert "gpu" in lanes
        assert any(lane.startswith("enc") for lane in lanes)
        assert "pcie.h2d.cc" in lanes
