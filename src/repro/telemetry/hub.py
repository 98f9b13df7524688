"""The telemetry event bus and per-request lifecycle records.

One :class:`TelemetryHub` lives on every :class:`repro.cc.Machine` and
is the single sink all instrumented layers report through: the span
tracer (PCIe / crypto-engine / GPU occupancy), the typed event stream
(:mod:`repro.telemetry.events`) and the per-request lifecycle records
that stitch classify → predict → stage → validate → wire into one
queryable trace per memcpy.

The hub is **disabled by default** and its disabled path is designed
to be nearly free: ``emit`` and ``begin_request`` return after one
attribute check, so benchmark numbers stay honest. Enabling the hub
(directly, or for a whole experiment via :func:`recording`) turns on
span collection and event/record retention.

Counters, by contrast, are *always* live: they are plain
:class:`~repro.sim.stats.MetricSet` counters shared with the machine,
and the runtime's historical statistics attributes are thin properties
over them.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from ..sim.stats import MetricSet
from ..sim.tracing import SpanTracer
from .events import TelemetryEvent

__all__ = [
    "RequestRecord",
    "TelemetryHub",
    "TraceSession",
    "active_session",
    "recording",
]

#: Fixed transfer-size histogram buckets (bytes): 4 KB … 256 MB.
TRANSFER_SIZE_BUCKETS = tuple(float(4096 * 4 ** i) for i in range(9))


@dataclass
class RequestRecord:
    """Lifecycle of one memcpy, from API submission to wire landing.

    Fields are filled in progressively by the runtime as the request
    moves through classification, validation and commit; timestamps
    are simulated seconds (``nan`` until the phase happens).
    """

    request_id: int
    direction: str
    addr: int
    size: int
    submit_time: float
    tag: str = ""
    #: "swap" | "swap-out" | "control"
    kind: str = ""
    #: Prediction stream ("weights" / "kv_cache") for swap traffic.
    swap_class: str = ""
    #: Validation outcome for swap-ins: hit_now/hit_future/stale/miss.
    outcome: str = ""
    #: How the bytes reached the wire: "staged" | "ondemand" |
    #: "inline" | "native" | "async-decrypt" | "sync-decrypt".
    strategy: str = ""
    #: IV of the staged entry this request validated against (-1: none).
    staged_iv: int = -1
    #: IV the ciphertext actually shipped under (-1: not committed yet).
    commit_iv: int = -1
    #: NOPs sent to close the IV gap in front of this request.
    nops_padded: int = 0
    #: The request was suspended to the batch boundary (§5.3).
    deferred: bool = False
    #: Causal trace context bound at submission (the parent span the
    #: completed record is adopted under); None outside tracing runs.
    #: See :mod:`repro.tracing.context`.
    trace: Optional[Any] = None
    api_done_time: float = math.nan
    complete_time: float = math.nan
    #: Exact critical-path intervals ``(stage, start, end)`` recorded
    #: by the runtime's timed halves while the hub is enabled. The
    #: stages of one request are sequential and non-overlapping, and
    #: together tile [submit_time, complete_time] (see
    #: :mod:`repro.observatory.profiler`).
    stages: List[Tuple[str, float, float]] = field(default_factory=list)

    def mark_stage(self, stage: str, start: float, end: float) -> None:
        """Record one critical-path interval; zero-length marks are
        dropped so waterfalls stay readable."""
        if end > start:
            self.stages.append((stage, start, end))

    @property
    def wire_latency(self) -> float:
        """Submission-to-landing time (nan until complete)."""
        return self.complete_time - self.submit_time

    def as_dict(self) -> Dict[str, Any]:
        out = {
            "request_id": self.request_id,
            "direction": self.direction,
            "addr": self.addr,
            "size": self.size,
            "tag": self.tag,
            "kind": self.kind,
            "swap_class": self.swap_class,
            "outcome": self.outcome,
            "strategy": self.strategy,
            "staged_iv": self.staged_iv,
            "commit_iv": self.commit_iv,
            "nops_padded": self.nops_padded,
            "deferred": self.deferred,
            "submit_time": self.submit_time,
            "api_done_time": self.api_done_time,
            "complete_time": self.complete_time,
            "stages": [list(stage) for stage in self.stages],
        }
        if self.trace is not None:
            # Only traced runs carry the linkage keys, so untraced
            # exports (and their golden files) are unchanged.
            out["trace_id"] = self.trace.trace_id
            out["parent_span_id"] = self.trace.span_id
        return out


class TelemetryHub:
    """Structured event bus for one machine.

    The hub aggregates four kinds of signal:

    * ``metrics`` — always-on counters / latency stats / histograms
      (shared with :attr:`Machine.metrics`);
    * ``tracer`` — lane spans (shared with ``sim.tracer`` so existing
      instrumentation in the resource and hardware layers flows in);
    * ``events`` — the typed event stream, retained only when enabled;
    * ``requests`` — per-request lifecycle records, ditto.
    """

    def __init__(
        self,
        sim=None,
        metrics: Optional[MetricSet] = None,
        tracer: Optional[SpanTracer] = None,
        enabled: bool = False,
        label: str = "",
    ) -> None:
        self.sim = sim
        self.metrics = metrics if metrics is not None else MetricSet()
        self.tracer = tracer if tracer is not None else SpanTracer(enabled=enabled)
        self.label = label
        self.events: List[TelemetryEvent] = []
        self.requests: List[RequestRecord] = []
        self.dropped_events = 0
        #: Retention cap for ``events`` + spans are uncapped; None = no cap.
        self.max_events: Optional[int] = None
        self._subscribers: List[Callable[[TelemetryEvent], None]] = []
        self._next_request_id = 0
        #: Trace context stamped onto records opened while bound (see
        #: :meth:`bound_trace`); None outside causal-tracing runs.
        self._bound_trace = None
        self.enabled = enabled

    # -- enablement -----------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        self.tracer.enabled = self._enabled

    def enable(self) -> None:
        self.enabled = True

    # -- event bus ------------------------------------------------------

    def emit(self, event: TelemetryEvent) -> None:
        """Publish one event; no-op (one attribute check) when disabled."""
        if not self._enabled:
            return
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.dropped_events += 1
        else:
            self.events.append(event)
        for subscriber in self._subscribers:
            subscriber(event)

    def subscribe(self, subscriber: Callable[[TelemetryEvent], None]) -> None:
        """Deliver every subsequent (enabled) event to ``subscriber``."""
        self._subscribers.append(subscriber)

    def events_of(self, event_type: Type[TelemetryEvent]) -> List[TelemetryEvent]:
        """All retained events of one type, in emission order."""
        return [e for e in self.events if isinstance(e, event_type)]

    # -- per-request lifecycle ------------------------------------------

    @contextlib.contextmanager
    def bound_trace(self, ctx):
        """Stamp ``ctx`` onto every record opened inside the block.

        The runtime's memcpy API opens its lifecycle record
        synchronously at the call, so a caller that knows *whose*
        transfer it is issuing (the replica loop, the interconnect)
        binds the request's trace context around the call and the
        record — and, on completion, its causal spans — attach to the
        right request DAG. Binding ``None`` is a no-op, so call sites
        need no tracing-enabled check.
        """
        previous = self._bound_trace
        self._bound_trace = ctx
        try:
            yield
        finally:
            self._bound_trace = previous

    def begin_request(
        self, direction: str, addr: int, size: int, time: float, tag: str = ""
    ) -> Optional[RequestRecord]:
        """Open a lifecycle record; returns None when disabled."""
        if not self._enabled:
            return None
        record = RequestRecord(
            request_id=self._next_request_id,
            direction=direction,
            addr=addr,
            size=size,
            submit_time=time,
            tag=tag,
            trace=self._bound_trace,
        )
        self._next_request_id += 1
        self.requests.append(record)
        return record

    def mark_api_done(self, record: RequestRecord, time: float) -> None:
        record.api_done_time = time

    def mark_complete(self, record: RequestRecord, time: float) -> None:
        record.complete_time = time
        self.metrics.latency(f"telemetry.{record.direction}_wire_s").record(
            max(0.0, record.wire_latency)
        )
        self.metrics.histogram(
            "telemetry.transfer_bytes", TRANSFER_SIZE_BUCKETS
        ).record(float(record.size))
        if record.trace is not None:
            # Lazy import: repro.tracing imports telemetry events, so
            # a module-level import here would be circular.
            from ..tracing import active_collector

            collector = active_collector()
            if collector is not None:
                collector.adopt_record(record, machine=self.label)

    def outcome_counts(self) -> Dict[str, int]:
        """Validation outcome counts over the recorded swap-in requests."""
        counts: Dict[str, int] = {}
        for record in self.requests:
            if record.outcome:
                counts[record.outcome] = counts.get(record.outcome, 0) + 1
        return counts

    def success_rate(self) -> float:
        """Staged-service fraction recomputed from the request records.

        Matches :attr:`repro.core.validator.Validator.success_rate`
        when the hub was enabled for the machine's whole lifetime.
        """
        counts = self.outcome_counts()
        total = sum(counts.values())
        if not total:
            return 0.0
        return (counts.get("hit_now", 0) + counts.get("hit_future", 0)) / total


class TraceSession:
    """Collects the hubs of every machine built while recording."""

    def __init__(self, max_events_per_hub: Optional[int] = None) -> None:
        self.hubs: List[TelemetryHub] = []
        self.max_events_per_hub = max_events_per_hub
        self._watchers: List[Callable[[TelemetryHub], None]] = []

    def watch(self, fn: Callable[[TelemetryHub], None]) -> None:
        """Call ``fn(hub)`` for every hub registered so far and every
        future one — how watchers follow machines that boot mid-run
        (replica re-attestation after a crash). Watchers run in the
        order they were added."""
        for hub in self.hubs:
            fn(hub)
        self._watchers.append(fn)

    def register(self, hub: TelemetryHub) -> None:
        hub.max_events = self.max_events_per_hub
        hub.enable()
        if not hub.label:
            hub.label = f"machine-{len(self.hubs)}"
        self.hubs.append(hub)
        for fn in self._watchers:
            fn(hub)


_SESSIONS: List[TraceSession] = []


def active_session() -> Optional[TraceSession]:
    """The innermost live :func:`recording` session, if any."""
    return _SESSIONS[-1] if _SESSIONS else None


@contextlib.contextmanager
def recording(max_events_per_hub: Optional[int] = None):
    """Enable telemetry for every machine built inside the block.

    >>> with recording() as session:
    ...     result = fig2_microbenchmark("quick")
    >>> chrome_trace(session.hubs)  # doctest: +SKIP
    """
    session = TraceSession(max_events_per_hub=max_events_per_hub)
    _SESSIONS.append(session)
    try:
        yield session
    finally:
        _SESSIONS.remove(session)
