"""Unified telemetry: event bus, lifecycle records, trace exporters.

The observability layer every other subsystem reports through:

* :class:`TelemetryHub` — per-machine structured event bus (typed
  events + lane spans + per-request lifecycle records), default-off
  with a near-free disabled path;
* :func:`recording` — context manager enabling telemetry for every
  machine built inside it (used by ``python -m repro trace``);
* :mod:`repro.telemetry.export` — Chrome ``trace_event`` JSON,
  flat JSON/CSV metric dumps, and ASCII Gantt rendering.
"""

from .events import (
    AlertEvent,
    ClusterEvent,
    FaultEvent,
    InjectionEvent,
    IvEvent,
    LinkEvent,
    RecoveryEvent,
    ServeEvent,
    SpeculationEvent,
    TelemetryEvent,
    TransferEvent,
)
from .export import (
    ascii_gantt,
    canonical_lane,
    chrome_trace,
    flat_metrics,
    metrics_csv,
)
from .hub import (
    RequestRecord,
    TelemetryHub,
    TraceSession,
    active_session,
    recording,
)

__all__ = [
    "AlertEvent",
    "ClusterEvent",
    "FaultEvent",
    "InjectionEvent",
    "IvEvent",
    "LinkEvent",
    "RecoveryEvent",
    "RequestRecord",
    "ServeEvent",
    "SpeculationEvent",
    "TelemetryEvent",
    "TelemetryHub",
    "TraceSession",
    "TransferEvent",
    "active_session",
    "ascii_gantt",
    "canonical_lane",
    "chrome_trace",
    "flat_metrics",
    "metrics_csv",
    "recording",
]
