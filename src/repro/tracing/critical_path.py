"""Exact critical-path extraction over causal span DAGs.

Given one request's span tree (rooted at its end-to-end span), the
extractor answers "what was this request *actually waiting on*, moment
by moment?" with a gapless chain of :class:`Segment`\\ s covering the
root interval — the request-level generalization of the per-machine
stage attribution in :mod:`repro.observatory.profiler`.

The algorithm is a backward *last-finisher* walk: starting from the
root's end, repeatedly descend into the child span that finished last
before the cursor (the thing whose completion unblocked progress),
attribute the gap between that child's end and the cursor to the
enclosing span itself, and recurse into the child over the window it
covers. Every segment boundary is an existing span timestamp used on
both sides of the cut, so the chain telescopes with float-identical
endpoints: ``segments[-1].end - segments[0].start`` equals the root
span's duration — and therefore the measured request latency —
*exactly*, which :func:`critical_path_duration` verifies on every
call.

:func:`check_closure` is the DAG hygiene gate (exactly one root, no
orphan parents, no dangling open spans — even across crash/failover),
and :func:`fleet_attribution` rolls per-trace critical paths up into
per-stage-class time and a bottleneck verdict (encryption-bound /
bridge-bound / migration-bound / pcie-bound / compute-bound /
queue-bound) that generalizes the Fig. 2 logic from one machine to
the whole fleet.

:data:`STAGE_CLASSES`, :func:`class_totals` and :func:`verdict` are
the repo's one attribution vocabulary: the per-machine profiler,
``repro dash``, bench verdicts and post-mortems all call them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from .context import ROOT_PARENT, CausalSpan, TraceCollector

__all__ = [
    "STAGE_CLASSES",
    "CLASS_VERDICTS",
    "Segment",
    "TraceCriticalPath",
    "FleetAttribution",
    "stage_class",
    "class_totals",
    "verdict",
    "critical_path",
    "critical_path_duration",
    "check_closure",
    "extract_trace",
    "extract_traces",
    "fleet_attribution",
]

#: Span stage → attribution class. The classes are the fleet-level
#: buckets the verdict logic reasons over: CPU AES-GCM waits ("aes"),
#: host↔GPU wire time ("pcie"), the CC bounce bridge between GPUs
#: ("bridge"), encrypted KV-cache movement between disaggregated
#: workers ("migration"), GPU busy time ("compute") and every form of
#: waiting for a turn ("queueing"). Unknown stages land in "other".
STAGE_CLASSES: Dict[str, str] = {
    "encrypt": "aes",
    "decrypt": "aes",
    "handshake": "aes",
    "pcie": "pcie",
    "control": "pcie",
    "staging": "pcie",
    "wire-order": "pcie",
    "transfer": "pcie",
    "interconnect": "bridge",
    "migration": "migration",
    "kv-chunk": "migration",
    "compute": "compute",
    "step": "compute",
    "queue": "queueing",
    "hold": "queueing",
    "service": "queueing",
    "request": "queueing",
}

#: Attribution class → per-run verdict, in dominance-check order
#: (ties break toward the earlier entry).
CLASS_VERDICTS: Tuple[Tuple[str, str], ...] = (
    ("aes", "encryption-bound"),
    ("bridge", "bridge-bound"),
    ("migration", "migration-bound"),
    ("compute", "compute-bound"),
    ("pcie", "pcie-bound"),
    ("queueing", "queue-bound"),
    ("other", "other-bound"),
)


def stage_class(stage: str) -> str:
    """The attribution class of one span stage label."""
    return STAGE_CLASSES.get(stage, "other")


def class_totals(stage_seconds: Iterable[Tuple[str, float]]) -> Dict[str, float]:
    """Fold ``(stage, seconds)`` pairs into seconds per attribution class."""
    out: Dict[str, float] = {}
    for stage, seconds in stage_seconds:
        cls = stage_class(stage)
        out[cls] = out.get(cls, 0.0) + seconds
    return out


def verdict(by_class: Mapping[str, float]) -> str:
    """Ordered argmax over :data:`CLASS_VERDICTS` of seconds per class:
    ties break toward the earlier entry; ``"idle"`` when nothing was
    attributed."""
    call, best = "idle", 0.0
    for cls, cls_verdict in CLASS_VERDICTS:
        seconds = by_class.get(cls, 0.0)
        if seconds > best:
            best, call = seconds, cls_verdict
    return call


@dataclass(frozen=True)
class Segment:
    """One interval of the critical path, attributed to one span."""

    stage: str
    start: float
    end: float
    name: str
    machine: str
    span_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "start": self.start,
            "end": self.end,
            "name": self.name,
            "machine": self.machine,
            "span_id": self.span_id,
        }


def critical_path(spans: Sequence[CausalSpan]) -> List[Segment]:
    """The gapless blocking chain over one trace's span tree.

    ``spans`` must be the spans of exactly one trace with one closed
    root. Open children are skipped (they never finished, so nothing
    was unblocked by them); children reaching past their window are
    clamped, so imperfect nesting degrades attribution, never
    exactness.
    """
    roots = [s for s in spans if s.parent_span_id == ROOT_PARENT]
    if len(roots) != 1:
        raise ValueError(f"expected exactly one root span, got {len(roots)}")
    root = roots[0]
    if root.open:
        raise ValueError(f"root span of {root.trace_id!r} is still open")

    children: Dict[int, List[CausalSpan]] = {}
    for span in spans:
        if span.parent_span_id != ROOT_PARENT:
            children.setdefault(span.parent_span_id, []).append(span)

    segments: List[Segment] = []

    def walk(span: CausalSpan, lo: float, hi: float) -> None:
        kids = [
            c for c in children.get(span.span_id, ())
            if not c.open and c.end > c.start
        ]
        # Last finisher first; start and span_id break exact-time ties
        # deterministically.
        kids.sort(key=lambda c: (c.end, c.start, c.span_id), reverse=True)
        cursor = hi
        for child in kids:
            if cursor <= lo:
                break
            if child.start >= cursor:
                continue  # Entirely after the cursor: not blocking.
            if child.end <= lo:
                break  # Sorted by end: nothing earlier can reach lo.
            child_end = min(child.end, cursor)
            if child_end < cursor:
                # Gap between the child's finish and the cursor: the
                # enclosing span's own time.
                segments.append(Segment(
                    span.stage, child_end, cursor,
                    span.name, span.machine, span.span_id,
                ))
            child_lo = max(lo, child.start)
            walk(child, child_lo, child_end)
            cursor = child_lo
        if cursor > lo:
            segments.append(Segment(
                span.stage, lo, cursor, span.name, span.machine, span.span_id
            ))

    if root.end > root.start:
        walk(root, root.start, root.end)
    segments.sort(key=lambda s: (s.start, s.end))
    return segments


def critical_path_duration(segments: Sequence[Segment]) -> float:
    """End-to-end duration of one gapless segment chain.

    Verifies the chain property (each segment starts exactly where
    the previous one ended — float-identical, not approximately) and
    returns ``last.end - first.start``, which is exact by
    construction. An empty chain (zero-duration root) is 0.0.
    """
    if not segments:
        return 0.0
    for prev, cur in zip(segments, segments[1:]):
        if cur.start != prev.end:
            raise ValueError(
                f"critical path has a seam: segment ending at {prev.end!r} "
                f"followed by one starting at {cur.start!r}"
            )
    return segments[-1].end - segments[0].start


def check_closure(spans: Sequence[CausalSpan]) -> List[str]:
    """DAG hygiene problems of one trace's spans; empty = closed.

    Checks: exactly one root; every parent id resolves to a span in
    the trace (no orphans); no span is left open (no dangling spans,
    even across crash/failover); no span ends before it starts.
    """
    problems: List[str] = []
    ids = {s.span_id for s in spans}
    roots = [s for s in spans if s.parent_span_id == ROOT_PARENT]
    if len(roots) != 1:
        problems.append(f"{len(roots)} roots (expected 1)")
    for span in spans:
        where = f"span {span.span_id} ({span.name!r})"
        if span.parent_span_id != ROOT_PARENT and span.parent_span_id not in ids:
            problems.append(f"{where}: orphan parent {span.parent_span_id}")
        if span.open:
            problems.append(f"{where}: dangling (never closed)")
        elif span.end < span.start:
            problems.append(f"{where}: ends before it starts")
    return problems


@dataclass
class TraceCriticalPath:
    """One request's extracted critical path plus its roll-ups."""

    trace_id: str
    status: str
    segments: List[Segment]
    closure_problems: List[str] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return critical_path_duration(self.segments)

    def by_class(self) -> Dict[str, float]:
        """Critical-path seconds per attribution class."""
        return class_totals((s.stage, s.duration) for s in self.segments)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "status": self.status,
            "duration_s": self.duration,
            "segments": len(self.segments),
            "by_class": {k: v for k, v in sorted(self.by_class().items())},
            "closure_problems": list(self.closure_problems),
        }


def extract_trace(
    collector: TraceCollector, trace_id: str
) -> TraceCriticalPath:
    """Critical path + closure report for one trace in a collector."""
    spans = collector.trace(trace_id)
    problems = check_closure(spans)
    root = collector.root(trace_id)
    status = root.status if root is not None else "missing-root"
    if problems:
        return TraceCriticalPath(trace_id, status, [], problems)
    return TraceCriticalPath(trace_id, status, critical_path(spans))


def extract_traces(collector: TraceCollector) -> List[TraceCriticalPath]:
    """Every trace of a collector, extracted once, in collection order."""
    return [extract_trace(collector, t) for t in collector.trace_ids()]


@dataclass
class FleetAttribution:
    """Critical-path time by stage class across every traced request."""

    n_traces: int
    total_s: float
    by_class: Dict[str, float]
    verdict: str
    closure_problems: List[str] = field(default_factory=list)

    def share(self, cls: str) -> float:
        return self.by_class.get(cls, 0.0) / self.total_s if self.total_s > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "n_traces": self.n_traces,
            "total_s": self.total_s,
            "by_class": {k: v for k, v in sorted(self.by_class.items())},
            "shares": {
                k: self.share(k) for k in sorted(self.by_class)
            },
            "verdict": self.verdict,
            "closure_problems": list(self.closure_problems),
        }


def fleet_attribution(paths: Sequence[TraceCriticalPath]) -> FleetAttribution:
    """Aggregate extracted critical paths into one verdict.

    Traces failing closure contribute their problems (namespaced by
    trace id) but no time — a broken DAG must never silently skew
    the attribution it invalidates.
    """
    by_class: Dict[str, float] = {}
    problems: List[str] = []
    n = 0
    for path in paths:
        if path.closure_problems:
            problems.extend(f"{path.trace_id}: {p}" for p in path.closure_problems)
            continue
        n += 1
        for cls, seconds in path.by_class().items():
            by_class[cls] = by_class.get(cls, 0.0) + seconds
    return FleetAttribution(
        n_traces=n, total_s=sum(by_class.values()), by_class=by_class,
        verdict=verdict(by_class), closure_problems=problems,
    )
