"""Unified telemetry: event bus, lifecycle records, trace exporters.

The observability layer every other subsystem reports through:

* :class:`TelemetryHub` — per-machine structured event bus (typed
  events + lane spans + per-request lifecycle records), default-off
  with a near-free disabled path;
* :func:`recording` — the one observability switch: enables
  telemetry for every machine built inside it and owns the causal
  span collectors of every run inside it (used by ``python -m repro
  trace`` and ``postmortem``);
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
    recording,
    register_hub,
    trace_collector,
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
    "ascii_gantt",
    "canonical_lane",
    "chrome_trace",
    "flat_metrics",
    "metrics_csv",
    "recording",
    "register_hub",
    "trace_collector",
]
