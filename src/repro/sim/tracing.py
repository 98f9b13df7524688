"""Span tracing and ASCII timeline rendering.

The paper's §4.1 figure contrasts NVIDIA CC (encrypt → transfer →
compute serialized on the critical path) with PipeLLM (encryption
pipelined off it). :class:`SpanTracer` records named spans from any
instrumented component and :func:`render_gantt` draws them as an ASCII
Gantt chart, so that illustration can be *regenerated from an actual
simulation* rather than drawn by hand — see ``examples/timeline.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

__all__ = ["Span", "SpanTracer", "render_gantt"]


@dataclass(frozen=True)
class Span:
    """One closed interval of activity on a named lane."""

    lane: str
    label: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanTracer:
    """Collects spans; inert (and nearly free) unless enabled."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []

    def record(self, lane: str, label: str, start: float, end: float) -> None:
        """Record one closed span (the tracer's only recording call)."""
        if not self.enabled:
            return
        if end < start:
            raise ValueError("span ends before it starts")
        self.spans.append(Span(lane, label, start, end))

    def lanes(self) -> List[str]:
        seen: List[str] = []
        for span in self.spans:
            if span.lane not in seen:
                seen.append(span.lane)
        return seen

    def busy_time(self, lane: str) -> float:
        """Total (possibly overlapping) span time on one lane."""
        return sum(span.duration for span in self.spans if span.lane == lane)


def render_gantt(
    tracer: SpanTracer,
    width: int = 72,
    start: Optional[float] = None,
    end: Optional[float] = None,
    lanes: Optional[Sequence[str]] = None,
    lane_prefix: Optional[str] = None,
) -> str:
    """Render spans as an ASCII Gantt chart.

    Each lane becomes one row; spans are drawn with the first letter of
    their label. Overlap within a lane shows as ``#``. ``lane_prefix``
    keeps only lanes whose name starts with the prefix (ignored when an
    explicit ``lanes`` list is given).
    """
    spans = tracer.spans
    if not spans:
        return "(no spans recorded)"
    t0 = start if start is not None else min(s.start for s in spans)
    t1 = end if end is not None else max(s.end for s in spans)
    if t1 <= t0:
        return "(empty time window)"
    if lanes:
        lane_names = list(lanes)
    else:
        lane_names = tracer.lanes()
        if lane_prefix is not None:
            lane_names = [l for l in lane_names if l.startswith(lane_prefix)]
    if not lane_names:
        return "(no matching lanes)"
    label_width = max(len(name) for name in lane_names) + 2
    scale = width / (t1 - t0)

    lines = []
    header = " " * label_width + f"t={t0 * 1e3:.2f}ms" + " " * 4 + f"(span {1e3 * (t1 - t0):.2f} ms)"
    lines.append(header)
    for lane in lane_names:
        cells = [" "] * width
        for span in spans:
            if span.lane != lane or span.end < t0 or span.start > t1:
                continue
            lo = max(0, int((span.start - t0) * scale))
            hi = min(width - 1, int((span.end - t0) * scale))
            glyph = (span.label[:1] or "*").lower()
            for i in range(lo, hi + 1):
                cells[i] = glyph if cells[i] == " " else "#"
        lines.append(lane.ljust(label_width) + "".join(cells))
    return "\n".join(lines)
