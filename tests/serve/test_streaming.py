"""Streaming-span ordering on the gateway hub's tracer.

Each request's delivery attempt is one ``stream`` span on its own
``serve.req-<id>`` lane, with closed ``token`` spans marking the
inter-token gaps. The invariants: token spans nest inside a stream
span (LIFO — the stream opens first and closes last), all times are
monotone in simulated time, and a replica crash mid-stream never
leaves an orphaned open stream on the front end's records — the
restarted attempt opens a fresh stream span, or the request is shed
cleanly.
"""

import math

import pytest

from repro.cluster import Cluster
from repro.core import ClusterConfig
from repro.serve import LoadSpec, ServeFrontend, generate_load
from repro.telemetry import ServeEvent, recording

RESERVE = 55 << 30


def _run(rate=8.0, duration=3.0, **config_kw):
    base = dict(
        replicas=2, system="pipellm", policy="least-loaded",
        reserve_bytes=RESERVE, max_outstanding=12,
    )
    base.update(config_kw)
    with recording():
        cluster = Cluster(ClusterConfig(**base))
        frontend = ServeFrontend(cluster)
        requests = generate_load(LoadSpec(rate=rate, duration=duration))
        result = frontend.run(requests, duration=duration)
    return frontend, result


def _assert_no_open_streams(frontend):
    """No front-end record is left holding an open stream span."""
    assert frontend.records
    for rec in frontend.records.values():
        assert rec.done
        assert math.isnan(rec.stream_start), f"{rec.lane} left a stream open"


def _lanes(frontend):
    spans = {}
    for span in frontend.telemetry.tracer.spans:
        if span.lane.startswith("serve.req-"):
            spans.setdefault(span.lane, []).append(span)
    return spans


class TestStreamSpanOrdering:
    def test_streams_nest_tokens_lifo_and_monotone(self):
        frontend, result = _run()
        lanes = _lanes(frontend)
        assert len(lanes) > 0
        for lane, spans in lanes.items():
            streams = [s for s in spans if s.label == "stream"]
            tokens = [s for s in spans if s.label == "token"]
            assert streams, f"{lane} has tokens but no stream span"
            for span in spans:
                assert span.end >= span.start
            # Monotone in simulated time, tokens non-overlapping.
            tokens.sort(key=lambda s: s.start)
            for a, b in zip(tokens, tokens[1:]):
                assert a.end <= b.start + 1e-12
            # LIFO nesting: every token span lies inside a stream span
            # (opened before, closed after).
            for token in tokens:
                assert any(
                    s.start <= token.start and token.end <= s.end
                    for s in streams
                ), f"token span outside any stream span on {lane}"

    def test_no_open_spans_after_drain(self):
        frontend, _ = _run()
        _assert_no_open_streams(frontend)

    def test_one_stream_span_per_completed_request_without_faults(self):
        frontend, result = _run()
        lanes = _lanes(frontend)
        completed = [r for r in result.responses if r.ok]
        assert len(lanes) == len(completed)
        for spans in lanes.values():
            assert sum(1 for s in spans if s.label == "stream") == 1


class TestCrashMidStream:
    def test_crash_restarts_or_sheds_with_no_orphaned_spans(self):
        frontend, result = _run(
            rate=8.0, duration=4.0, fail_at=0.5, recover_after=2.0
        )
        assert result.failovers > 0
        events = [e for e in frontend.telemetry.events if isinstance(e, ServeEvent)]
        restarts = [e for e in events if e.action == "restart"]
        assert restarts, "no stream restarted despite a mid-run crash"
        assert result.completed + result.shed == result.offered

        _assert_no_open_streams(frontend)
        lanes = _lanes(frontend)

        # A restarted request has one stream span per delivery attempt,
        # all disjoint and ordered.
        for event in restarts:
            lane = f"serve.req-{event.request_id}"
            streams = sorted(
                (s for s in lanes.get(lane, []) if s.label == "stream"),
                key=lambda s: s.start,
            )
            assert len(streams) >= 2
            for a, b in zip(streams, streams[1:]):
                assert a.end <= b.start

    def test_restarted_request_keeps_first_attempt_ttft(self):
        frontend, result = _run(
            rate=8.0, duration=4.0, fail_at=0.5, recover_after=2.0
        )
        events = [e for e in frontend.telemetry.events if isinstance(e, ServeEvent)]
        restarted = {
            e.request_id for e in events
            if e.action == "restart" and "tokens=0" not in e.detail
        }
        served = {r.request.request_id: r for r in result.responses if r.ok}
        for rid in restarted & set(served):
            first_token_events = [
                e for e in events
                if e.request_id == rid and e.action == "first-token"
            ]
            # TTFT pins the FIRST attempt's first token even though the
            # stream restarted from index 1 afterwards.
            assert served[rid].first_token_time == pytest.approx(
                first_token_events[0].time
            )
