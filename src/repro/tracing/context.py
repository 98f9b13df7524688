"""Causal trace contexts and the span collector.

One serving request crosses many machines: the front end admits it,
the gateway queues and dispatches it, a replica prefills/decodes it
(possibly across a crash and a failover), and — under tensor
parallelism — inter-GPU hops bounce its activations through the CVM.
The per-machine :class:`~repro.telemetry.hub.TelemetryHub` sees each
leg as a flat lane; nothing ties the legs together.

A :class:`TraceContext` is the thread that does: a ``(trace_id,
span_id, parent_span_id)`` triple minted at the request's entry point
and propagated through every layer the request touches. Each layer
records :class:`CausalSpan`\\ s under its context, so one request
yields one causal span DAG (a tree of timed intervals rooted at the
request's end-to-end span) instead of per-machine fragments.

Identifiers are fully deterministic: ``trace_id`` derives from the
request id (``serve.req-3``, ``cluster.req-7``, ``<machine>.hop-12``)
and ``span_id`` is a per-trace counter — no wall clock, no
randomness, so two runs at one seed produce byte-identical DAGs.

Every context carries the :class:`TraceCollector` that minted it, so
layers continuing a trace record through the context they were handed.
Only the layers that mint traces ask the live
:func:`repro.telemetry.recording` session for their run's collector,
once, when built; outside a session they mint nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "ROOT_PARENT",
    "TraceContext",
    "CausalSpan",
    "TraceCollector",
]

#: Sentinel ``parent_span_id`` of a trace's root span.
ROOT_PARENT = -1


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of one span within one trace.

    Layers pass contexts, never spans: a context is immutable, cheap
    to thread through call chains and safe to stash on request
    objects that outlive the code that minted them.
    """

    trace_id: str
    span_id: int
    parent_span_id: int = ROOT_PARENT
    #: The collector that minted the context; continuing layers record
    #: their spans through it. Not part of the context's identity.
    collector: Optional["TraceCollector"] = field(
        default=None, compare=False, repr=False
    )


@dataclass
class CausalSpan:
    """One timed interval of one request's causal journey.

    ``end`` is ``nan`` while the span is open; a span left open at
    the end of a run is *dangling* and fails the DAG closure check
    (see :func:`repro.tracing.critical_path.check_closure`).
    """

    trace_id: str
    span_id: int
    parent_span_id: int
    name: str
    #: Stage label driving fleet attribution (see ``STAGE_CLASSES``).
    stage: str
    #: Which machine/component recorded the span (hub label).
    machine: str
    start: float
    end: float = math.nan
    status: str = "ok"

    @property
    def open(self) -> bool:
        return math.isnan(self.end)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "name": self.name,
            "stage": self.stage,
            "machine": self.machine,
            "start": self.start,
            "end": self.end,
            "status": self.status,
        }


class TraceCollector:
    """Accumulates the causal span DAGs of every traced request.

    One collector spans one run (all machines, all hubs); spans carry
    their machine label so the fleet view never loses locality. The
    collector is append-mostly: ``begin`` opens a span and returns
    the child context to propagate, ``end`` closes it, ``add``
    records an already-closed interval in one call.
    """

    def __init__(self) -> None:
        self.spans: List[CausalSpan] = []
        self._by_key: Dict[Tuple[str, int], CausalSpan] = {}
        self._next_span_id: Dict[str, int] = {}
        self._trace_order: List[str] = []

    # -- span lifecycle --------------------------------------------------

    def begin(
        self,
        parent: Optional[TraceContext],
        name: str,
        stage: str,
        machine: str,
        start: float,
        trace_id: Optional[str] = None,
    ) -> TraceContext:
        """Open one span; returns the context its children propagate.

        With ``parent=None`` this mints a new trace (``trace_id``
        required and must be unique); otherwise the span nests under
        the parent context within the parent's trace.
        """
        if parent is None:
            if not trace_id:
                raise ValueError("a root span needs an explicit trace_id")
            if trace_id in self._next_span_id:
                raise ValueError(f"trace {trace_id!r} already exists")
            self._next_span_id[trace_id] = 0
            self._trace_order.append(trace_id)
            parent_span_id = ROOT_PARENT
        else:
            trace_id = parent.trace_id
            parent_span_id = parent.span_id
            if trace_id not in self._next_span_id:
                raise ValueError(f"unknown trace {trace_id!r}")
        span_id = self._next_span_id[trace_id]
        self._next_span_id[trace_id] = span_id + 1
        span = CausalSpan(
            trace_id=trace_id,
            span_id=span_id,
            parent_span_id=parent_span_id,
            name=name,
            stage=stage,
            machine=machine,
            start=start,
        )
        self.spans.append(span)
        self._by_key[(trace_id, span_id)] = span
        return TraceContext(trace_id, span_id, parent_span_id, self)

    def start_trace(
        self, trace_id: str, name: str, stage: str, machine: str, start: float
    ) -> TraceContext:
        """Mint one new trace; sugar over ``begin(None, ...)``."""
        return self.begin(None, name, stage, machine, start, trace_id=trace_id)

    def end(self, ctx: TraceContext, end: float, status: str = "ok") -> None:
        """Close the span behind ``ctx``. Closing twice is an error —
        it would mean two layers both think they own the span."""
        span = self._by_key.get((ctx.trace_id, ctx.span_id))
        if span is None:
            raise KeyError(f"no span {ctx.span_id} in trace {ctx.trace_id!r}")
        if not span.open:
            raise ValueError(
                f"span {ctx.trace_id!r}/{ctx.span_id} already closed"
            )
        span.end = end
        span.status = status

    def add(
        self,
        parent: Optional[TraceContext],
        name: str,
        stage: str,
        machine: str,
        start: float,
        end: float,
        status: str = "ok",
        trace_id: Optional[str] = None,
    ) -> TraceContext:
        """Record one already-closed interval under ``parent``."""
        ctx = self.begin(parent, name, stage, machine, start, trace_id=trace_id)
        self.end(ctx, end, status=status)
        return ctx

    # -- telemetry-record adoption ---------------------------------------

    def adopt_record(self, record, machine: str = "") -> Optional[TraceContext]:
        """Materialize a completed hub lifecycle record as child spans.

        Called by :meth:`TelemetryHub.mark_complete` for records whose
        submission carried a bound trace context: the memcpy/hop
        becomes one ``transfer`` span under the bound parent, and the
        record's exact critical-path intervals become its stage
        children — so machine-level fidelity (encrypt/pcie/decrypt
        waits measured by the runtime's timed halves) flows into the
        causal DAG without re-instrumenting the runtime.
        """
        parent = record.trace
        if parent is None:
            return None
        name = f"{record.direction}:{record.kind or record.strategy or 'xfer'}"
        xfer = self.begin(
            parent, name, "transfer", machine, record.submit_time
        )
        for stage, start, end in record.stages:
            self.add(xfer, stage, stage, machine, start, end)
        self.end(xfer, record.complete_time)
        return xfer

    # -- queries ---------------------------------------------------------

    def trace_ids(self) -> List[str]:
        """Every trace minted, in creation order."""
        return list(self._trace_order)

    def trace(self, trace_id: str) -> List[CausalSpan]:
        """All spans of one trace, in creation order."""
        return [s for s in self.spans if s.trace_id == trace_id]

    def root(self, trace_id: str) -> Optional[CausalSpan]:
        """The trace's root span (parent == :data:`ROOT_PARENT`)."""
        for span in self.spans:
            if span.trace_id == trace_id and span.parent_span_id == ROOT_PARENT:
                return span
        return None

    def open_spans(self) -> List[CausalSpan]:
        """Every span still open — should be empty after a clean run."""
        return [s for s in self.spans if s.open]

    def __len__(self) -> int:
        return len(self.spans)

