"""TraceContext / TraceCollector span-lifecycle semantics."""

import pytest

from repro.tracing import ROOT_PARENT, TraceCollector, TraceContext


def test_start_trace_mints_root():
    col = TraceCollector()
    ctx = col.start_trace("t-1", "request", "request", "gateway", 0.0)
    assert ctx == TraceContext("t-1", 0, ROOT_PARENT)
    root = col.root("t-1")
    assert root is not None and root.open
    col.end(ctx, 2.0)
    assert not root.open and root.end - root.start == 2.0
    assert col.trace_ids() == ["t-1"]


def test_begin_nests_under_parent_with_sequential_span_ids():
    col = TraceCollector()
    root = col.start_trace("t-1", "request", "request", "gw", 0.0)
    a = col.begin(root, "queue", "queue", "gw", 0.0)
    b = col.begin(root, "service", "service", "replica-0", 0.5)
    assert (a.trace_id, a.span_id, a.parent_span_id) == ("t-1", 1, 0)
    assert (b.trace_id, b.span_id, b.parent_span_id) == ("t-1", 2, 0)
    grandchild = col.begin(b, "step", "compute", "replica-0", 0.6)
    assert grandchild.parent_span_id == b.span_id


def test_root_requires_trace_id():
    col = TraceCollector()
    with pytest.raises(ValueError):
        col.begin(None, "request", "request", "gw", 0.0)


def test_duplicate_trace_id_rejected():
    col = TraceCollector()
    col.start_trace("t-1", "request", "request", "gw", 0.0)
    with pytest.raises(ValueError):
        col.start_trace("t-1", "request", "request", "gw", 1.0)


def test_begin_under_unknown_trace_rejected():
    col = TraceCollector()
    ghost = TraceContext("nope", 0)
    with pytest.raises(ValueError):
        col.begin(ghost, "queue", "queue", "gw", 0.0)


def test_end_unknown_span_raises_keyerror():
    col = TraceCollector()
    col.start_trace("t-1", "request", "request", "gw", 0.0)
    with pytest.raises(KeyError):
        col.end(TraceContext("t-1", 99), 1.0)


def test_double_end_rejected():
    col = TraceCollector()
    ctx = col.start_trace("t-1", "request", "request", "gw", 0.0)
    col.end(ctx, 1.0)
    with pytest.raises(ValueError):
        col.end(ctx, 2.0)


def test_add_records_closed_interval():
    col = TraceCollector()
    root = col.start_trace("t-1", "request", "request", "gw", 0.0)
    col.add(root, "encrypt", "encrypt", "cpu", 0.1, 0.4, status="ok")
    (span,) = [s for s in col.spans if s.name == "encrypt"]
    assert not span.open
    assert span.start == 0.1 and span.end == 0.4


def test_open_spans_tracks_dangling():
    col = TraceCollector()
    root = col.start_trace("t-1", "request", "request", "gw", 0.0)
    child = col.begin(root, "queue", "queue", "gw", 0.0)
    assert len(col.open_spans()) == 2
    col.end(child, 1.0)
    col.end(root, 1.0)
    assert col.open_spans() == []


def test_context_carries_its_collector_outside_its_identity():
    col = TraceCollector()
    root = col.start_trace("t-1", "request", "request", "gw", 0.0)
    child = root.collector.begin(root, "queue", "queue", "gw", 0.0)
    assert root.collector is col and child.collector is col
    assert child == TraceContext("t-1", 1, 0)
    assert "collector" not in repr(child)


def test_adopt_record_materializes_stage_children():
    """A completed hub record with a bound trace becomes a transfer
    span whose children are the record's measured stage intervals."""
    from repro.telemetry.hub import RequestRecord

    col = TraceCollector()
    root = col.start_trace("t-1", "request", "request", "gw", 0.0)
    record = RequestRecord(
        request_id=1, direction="h2d", addr=0, size=4096, submit_time=0.0
    )
    record.trace = root
    record.mark_stage("encrypt", 0.0, 0.3)
    record.mark_stage("pcie", 0.3, 0.9)
    record.complete_time = 0.9
    xfer = col.adopt_record(record, machine="m0")
    assert xfer is not None
    spans = col.trace("t-1")
    stages = [(s.stage, s.start, s.end) for s in spans if s.parent_span_id == xfer.span_id]
    assert stages == [("encrypt", 0.0, 0.3), ("pcie", 0.3, 0.9)]
    transfer = col._by_key[("t-1", xfer.span_id)]
    assert transfer.stage == "transfer" and transfer.end == 0.9


def test_adopt_record_without_trace_is_noop():
    from repro.telemetry.hub import RequestRecord

    col = TraceCollector()
    record = RequestRecord(
        request_id=1, direction="h2d", addr=0, size=4096, submit_time=0.0
    )
    record.complete_time = 1.0
    assert col.adopt_record(record) is None
    assert len(col) == 0
