"""Causal request tracing, burn-rate alerting, flight recording.

The diagnosability layer over :mod:`repro.telemetry`:

* :class:`TraceContext` / :class:`TraceCollector` — deterministic
  trace-context propagation: one context minted per request at the
  serving front end (or gateway, or per interconnect hop) and
  threaded through every layer, yielding one causal span DAG per
  request instead of flat per-machine lanes. Each context carries
  its collector; the collectors themselves belong to the
  :func:`repro.telemetry.recording` session, one per simulator run
  (``session.collectors``);
* :mod:`repro.tracing.critical_path` — exact critical-path extraction
  over those DAGs (the chain telescopes to the measured request
  latency float-exactly), DAG closure checks, and the one stage table
  and ``verdict`` rule (encryption-/bridge-/pcie-/compute-bound...)
  that the profiler, ``repro dash``, bench and post-mortems share;
* :class:`AlertEngine` — multi-window SLO burn-rate alerting plus
  anomaly-burst rules over the recovery-event stream, in simulated
  time only;
* :class:`FlightRecorder` — bounded per-machine event rings that
  snapshot on crash/auth-failure/alert, feeding the deterministic
  post-mortem bundle behind ``python -m repro postmortem``.
"""

from .alerts import Alert, AlertEngine, BurnRateRule, EventRule, default_event_rules
from .context import ROOT_PARENT, CausalSpan, TraceCollector, TraceContext
from .critical_path import (
    CLASS_VERDICTS,
    STAGE_CLASSES,
    FleetAttribution,
    Segment,
    TraceCriticalPath,
    check_closure,
    class_totals,
    critical_path,
    critical_path_duration,
    extract_trace,
    extract_traces,
    fleet_attribution,
    stage_class,
    verdict,
)
from .recorder import (
    FlightRecorder,
    postmortem_bundle,
    render_critical_path_table,
    write_postmortem,
)

__all__ = [
    "Alert",
    "AlertEngine",
    "BurnRateRule",
    "CLASS_VERDICTS",
    "CausalSpan",
    "EventRule",
    "FleetAttribution",
    "FlightRecorder",
    "ROOT_PARENT",
    "STAGE_CLASSES",
    "Segment",
    "TraceCollector",
    "TraceContext",
    "TraceCriticalPath",
    "check_closure",
    "class_totals",
    "critical_path",
    "critical_path_duration",
    "default_event_rules",
    "extract_trace",
    "extract_traces",
    "fleet_attribution",
    "postmortem_bundle",
    "render_critical_path_table",
    "stage_class",
    "verdict",
    "write_postmortem",
]
