"""Exact critical-path extraction: unit, property and end-to-end.

The headline acceptance invariant of the tracing subsystem is exactness:
for every traced request, ``critical_path_duration(segments)`` equals
the root span's measured duration *float-identically* — across the
serving front end, the cluster gateway (including crash/failover) and
tensor-parallel interconnect hops.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tracing import (
    CLASS_VERDICTS,
    ROOT_PARENT,
    CausalSpan,
    TraceCollector,
    check_closure,
    critical_path,
    critical_path_duration,
    extract_trace,
    extract_traces,
    fleet_attribution,
    stage_class,
    verdict,
)
from repro.tracing.critical_path import Segment


def _span(span_id, parent, stage, start, end, name=None):
    return CausalSpan(
        trace_id="t", span_id=span_id, parent_span_id=parent,
        name=name or stage, stage=stage, machine="m", start=start, end=end,
    )


# -- unit ----------------------------------------------------------------


def test_single_root_is_one_segment():
    segs = critical_path([_span(0, ROOT_PARENT, "request", 0.0, 2.0)])
    assert [(s.stage, s.start, s.end) for s in segs] == [("request", 0.0, 2.0)]
    assert critical_path_duration(segs) == 2.0


def test_gap_attributed_to_enclosing_span():
    # Child covers [0.5, 1.2] of a [0, 2] root: the root owns the
    # leading [0, 0.5] and trailing [1.2, 2.0] gaps.
    segs = critical_path([
        _span(0, ROOT_PARENT, "request", 0.0, 2.0),
        _span(1, 0, "service", 0.5, 1.2),
    ])
    assert [(s.stage, s.start, s.end) for s in segs] == [
        ("request", 0.0, 0.5),
        ("service", 0.5, 1.2),
        ("request", 1.2, 2.0),
    ]


def test_last_finisher_wins_overlap():
    # Two overlapping children: the one finishing last was the blocker
    # over the overlap; the earlier one only owns time before it.
    segs = critical_path([
        _span(0, ROOT_PARENT, "request", 0.0, 3.0),
        _span(1, 0, "encrypt", 0.0, 2.0),
        _span(2, 0, "pcie", 1.0, 3.0),
    ])
    assert [(s.stage, s.start, s.end) for s in segs] == [
        ("encrypt", 0.0, 1.0),
        ("pcie", 1.0, 3.0),
    ]


def test_open_children_skipped():
    segs = critical_path([
        _span(0, ROOT_PARENT, "request", 0.0, 1.0),
        _span(1, 0, "service", 0.2, math.nan),
    ])
    assert [(s.stage, s.start, s.end) for s in segs] == [("request", 0.0, 1.0)]


def test_child_overrunning_root_is_clamped():
    # Adoption can land a transfer span that finishes after its parent
    # closed; exactness must survive via clamping.
    segs = critical_path([
        _span(0, ROOT_PARENT, "request", 0.0, 1.0),
        _span(1, 0, "transfer", 0.5, 4.0),
    ])
    assert critical_path_duration(segs) == 1.0
    assert segs[-1].end == 1.0


def test_multiple_roots_rejected():
    with pytest.raises(ValueError):
        critical_path([
            _span(0, ROOT_PARENT, "request", 0.0, 1.0),
            _span(1, ROOT_PARENT, "request", 0.0, 1.0),
        ])


def test_open_root_rejected():
    with pytest.raises(ValueError):
        critical_path([_span(0, ROOT_PARENT, "request", 0.0, math.nan)])


def test_seam_detection():
    with pytest.raises(ValueError):
        critical_path_duration([
            Segment("a", 0.0, 1.0, "a", "m", 0),
            Segment("b", 1.5, 2.0, "b", "m", 1),
        ])


def test_check_closure_flags_everything():
    spans = [
        _span(0, ROOT_PARENT, "request", 0.0, 2.0),
        _span(1, 0, "queue", 0.0, math.nan),       # dangling
        _span(2, 99, "service", 0.5, 1.0),         # orphan parent
        _span(3, 0, "step", 1.0, 0.5),             # ends before start
    ]
    problems = check_closure(spans)
    assert len(problems) == 3
    assert any("dangling" in p for p in problems)
    assert any("orphan" in p for p in problems)
    assert any("ends before" in p for p in problems)
    assert check_closure([_span(0, ROOT_PARENT, "request", 0.0, 2.0)]) == []


def test_stage_classes_cover_the_taxonomy():
    assert stage_class("encrypt") == "aes"
    assert stage_class("decrypt") == "aes"
    assert stage_class("pcie") == "pcie"
    assert stage_class("interconnect") == "bridge"
    assert stage_class("step") == "compute"
    assert stage_class("queue") == "queueing"
    assert stage_class("hold") == "queueing"
    assert stage_class("whatever") == "other"


def test_verdict_is_idle_when_nothing_attributed():
    assert verdict({}) == "idle"
    assert verdict({"aes": 0.0, "pcie": 0.0}) == "idle"


def test_verdict_ties_follow_class_verdict_order():
    # Every pair of equal classes resolves toward the earlier entry.
    for i, (first, first_verdict) in enumerate(CLASS_VERDICTS):
        for later, _ in CLASS_VERDICTS[i + 1:]:
            assert verdict({later: 0.5, first: 0.5}) == first_verdict
    assert verdict({"pcie": 0.4, "bridge": 0.4, "aes": 0.2}) == "bridge-bound"


def test_verdict_compute_share_above_the_others_is_compute_bound():
    assert verdict({"aes": 0.3, "pcie": 0.7, "compute": 0.9}) == "compute-bound"
    assert verdict({"aes": 0.3, "pcie": 0.7, "compute": 0.6}) == "pcie-bound"
    assert verdict({"other": 1.0}) == "other-bound"


def test_fleet_attribution_verdict_and_broken_trace_exclusion():
    col = TraceCollector()
    root = col.start_trace("good", "request", "request", "gw", 0.0)
    col.add(root, "encrypt", "encrypt", "cpu", 0.0, 0.9)
    col.end(root, 1.0)
    # A broken trace must contribute problems but no time.
    col.start_trace("bad", "request", "request", "gw", 0.0)  # never closed
    fleet = fleet_attribution(extract_traces(col))
    assert fleet.n_traces == 1
    assert fleet.verdict == "encryption-bound"
    assert fleet.share("aes") == pytest.approx(0.9)
    assert any(p.startswith("bad:") for p in fleet.closure_problems)


# -- property: exactness over random well-formed trees -------------------


@st.composite
def span_trees(draw):
    """Random single-root span trees with arbitrary float times."""
    n = draw(st.integers(min_value=0, max_value=12))
    times = st.floats(
        min_value=0.0, max_value=100.0,
        allow_nan=False, allow_infinity=False,
    )
    r0, r1 = sorted((draw(times), draw(times)))
    spans = [_span(0, ROOT_PARENT, "request", r0, r1)]
    for i in range(1, n + 1):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        a, b = sorted((draw(times), draw(times)))
        stage = draw(st.sampled_from(
            ["encrypt", "pcie", "interconnect", "step", "queue", "zzz"]
        ))
        spans.append(_span(i, parent, stage, a, b))
    return spans


@settings(max_examples=200, deadline=None)
@given(span_trees())
def test_exactness_property(spans):
    """For any well-formed tree: the chain is gapless and its duration
    equals the root duration exactly (float-identical, no epsilon)."""
    segs = critical_path(spans)
    duration = critical_path_duration(segs)  # raises on any seam
    root = spans[0]
    assert duration == root.end - root.start
    if segs:
        assert segs[0].start == root.start
        assert segs[-1].end == root.end


# -- end-to-end: exactness over full simulated runs ----------------------


def _assert_all_traces_exact(col, expect_min_traces):
    ids = col.trace_ids()
    assert len(ids) >= expect_min_traces
    assert col.open_spans() == []
    for trace_id in ids:
        path = extract_trace(col, trace_id)
        assert path.closure_problems == [], (trace_id, path.closure_problems)
        root = col.root(trace_id)
        assert path.duration == root.end - root.start, trace_id
    return ids


def test_cluster_run_traces_are_exact():
    from repro.cluster import run_cluster
    from repro.core import ClusterConfig
    from repro.telemetry import recording

    with recording() as session:
        result = run_cluster(
            ClusterConfig(replicas=2, seed=7), rate=3.0, duration=6.0
        )
    (col,) = session.collectors
    assert result.completed > 0
    _assert_all_traces_exact(col, expect_min_traces=result.completed)


def test_one_session_over_two_runs_keeps_one_collector_per_run():
    """Trace ids restart with every run, so a session spanning two
    fleet runs holds one collector per simulator, each closed."""
    from repro.cluster import run_cluster
    from repro.core import ClusterConfig
    from repro.telemetry import recording

    with recording() as session:
        results = [
            run_cluster(ClusterConfig(replicas=2, seed=7), rate=3.0, duration=3.0)
            for _ in range(2)
        ]
    first, second = session.collectors
    assert first is not second
    for col, result in zip(session.collectors, results):
        ids = _assert_all_traces_exact(col, expect_min_traces=result.completed)
        assert len(set(ids)) == len(ids) and "cluster.req-0" in ids


def test_crash_failover_traces_stay_closed():
    """A replica crash mid-run must not leave one dangling span: the
    in-flight attempt closes with status "failover" and the retry's
    fresh attempt span carries the trace to completion."""
    from repro.cluster import run_cluster
    from repro.core import ClusterConfig
    from repro.telemetry import recording

    with recording() as session:
        result = run_cluster(
            ClusterConfig(
                replicas=3, seed=11, fail_at=2.0, recover_after=3.0
            ),
            rate=4.0, duration=10.0,
        )
    (col,) = session.collectors
    assert result.failovers > 0, "scenario must actually exercise failover"
    ids = _assert_all_traces_exact(col, expect_min_traces=result.completed)
    failover_spans = [
        s for trace_id in ids for s in col.trace(trace_id)
        if s.status == "failover"
    ]
    assert failover_spans, "failover attempts must be visibly closed"


def test_serve_run_traces_are_exact():
    from repro.core import ClusterConfig
    from repro.serve import LoadSpec, run_serve
    from repro.telemetry import recording

    with recording() as session:
        result = run_serve(
            ClusterConfig(replicas=2, seed=5),
            LoadSpec(rate=6.0, duration=5.0, seed=5),
        )
    (col,) = session.collectors
    assert result.completed > 0
    _assert_all_traces_exact(col, expect_min_traces=result.completed)
    # Serve roots are minted at frontend admission.
    assert any(t.startswith("serve.req-") for t in col.trace_ids())


def test_parallel_interconnect_hops_get_root_traces():
    """TP inter-GPU hops no request owns mint per-hop root traces whose
    critical paths are exact and bridge/pcie attributed."""
    from repro.cc import CcMode, build_machine
    from repro.models import OPT_13B
    from repro.parallel import TensorParallelEngine
    from repro.telemetry import recording

    with recording() as session:
        machine = build_machine(
            CcMode.ENABLED, n_gpus=2, enc_threads=2, dec_threads=2
        )
        engine = TensorParallelEngine(machine, OPT_13B, batch=8)
        engine.run(output_tokens=1)
    (col,) = session.collectors
    ids = _assert_all_traces_exact(col, expect_min_traces=4)
    assert all(".hop-" in t for t in ids)
    fleet = fleet_attribution(extract_traces(col))
    assert fleet.n_traces == len(ids)
    assert fleet.total_s > 0


@pytest.mark.parametrize("speculate,hop_verdict", [
    (False, "encryption-bound"),
    (True, "bridge-bound"),
])
def test_tp2_verdicts_machine_vs_hops(speculate, hop_verdict):
    """On one TP-2 run the per-machine profiler counts both GPUs' busy
    seconds and calls the run compute-bound, as the what-if oracle
    does (doubling GPU speed helps most). The fleet critical path over
    the hop traces, which carry no compute, still names the link: the
    serialized bridge's AES under CC, its DMA legs under PipeLLM."""
    from repro.cc import CcMode, build_machine
    from repro.models import OPT_13B
    from repro.observatory import profile_hub
    from repro.parallel import LinkSpeculator, TensorParallelEngine
    from repro.telemetry import recording

    with recording() as session:
        machine = build_machine(
            CcMode.ENABLED, n_gpus=2, enc_threads=8, dec_threads=2
        )
        if speculate:
            machine.interconnect.attach_speculator(
                LinkSpeculator(lambda: machine.sim.now)
            )
        TensorParallelEngine(machine, OPT_13B, batch=16).run(output_tokens=2)
        profile = profile_hub(machine.telemetry)
    (col,) = session.collectors
    fleet = fleet_attribution(extract_traces(col))
    assert profile.verdict == "compute-bound"
    assert fleet.verdict == hop_verdict
