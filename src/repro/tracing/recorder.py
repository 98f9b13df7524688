"""The fault flight recorder and deterministic post-mortem bundles.

A :class:`FlightRecorder` keeps a bounded ring of the most recent
telemetry events *per machine* — cheap enough to leave on for a whole
campaign — and snapshots every ring the moment something goes wrong:
a replica crash, a GCM auth-failure recovery, or an alert-engine
firing. The snapshot is what a post-incident reviewer actually wants:
"the last N things each machine saw, as of the moment of impact",
not a gigabyte of full-run history.

:func:`postmortem_bundle` folds the recorder's snapshots, the alert
log, every traced request's critical path and the fleet verdict into
one JSON-serializable document; :func:`write_postmortem` writes it to
disk alongside a Chrome trace and a human-readable critical-path
table. Both take the critical paths already extracted
(:func:`~repro.tracing.critical_path.extract_traces`), so each trace
is walked once per post-mortem. Everything is keyed, sorted and
timestamped in simulated time only, so ``python -m repro postmortem``
produces byte-identical bundles under one seed.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Sequence

from ..telemetry.events import AlertEvent, ClusterEvent, RecoveryEvent, TelemetryEvent
from .critical_path import TraceCriticalPath, fleet_attribution, verdict

__all__ = [
    "FlightRecorder",
    "postmortem_bundle",
    "render_critical_path_table",
    "write_postmortem",
]


def _event_row(event: TelemetryEvent) -> Dict[str, Any]:
    row = {"time": event.time, "kind": event.kind}
    row.update(event.args())
    return row


class FlightRecorder:
    """Bounded per-machine event rings with snapshot-on-fault."""

    def __init__(self, ring_size: int = 256) -> None:
        if ring_size <= 0:
            raise ValueError("ring_size must be positive")
        self.ring_size = ring_size
        #: Machine label → ring of its most recent events.
        self.rings: Dict[str, Deque[TelemetryEvent]] = {}
        #: Every snapshot taken, in trigger order.
        self.snapshots: List[Dict[str, Any]] = []

    # -- wiring ----------------------------------------------------------

    def watch(self, hub) -> None:
        """Ring-buffer one hub's event stream and arm the triggers."""
        label = hub.label or f"machine-{len(self.rings)}"
        ring = self.rings.setdefault(label, deque(maxlen=self.ring_size))

        def _observe(event: TelemetryEvent, _ring=ring) -> None:
            _ring.append(event)
            reason = self._trigger(event)
            if reason is not None:
                self.snapshot(reason, event.time)

        hub.subscribe(_observe)

    # -- triggers --------------------------------------------------------

    @staticmethod
    def _trigger(event: TelemetryEvent) -> Optional[str]:
        if isinstance(event, ClusterEvent) and event.action == "crash":
            return f"crash:replica-{event.replica}"
        if isinstance(event, RecoveryEvent) and event.action == "auth-recover":
            return "auth-failure"
        if isinstance(event, AlertEvent):
            return f"alert:{event.rule}"
        return None

    def snapshot(self, reason: str, time: float) -> Dict[str, Any]:
        """Freeze every ring's current contents into one snapshot."""
        snap = {
            "reason": reason,
            "time": time,
            "rings": {
                label: [_event_row(e) for e in ring]
                for label, ring in sorted(self.rings.items())
            },
        }
        self.snapshots.append(snap)
        return snap


def postmortem_bundle(
    recorder: Optional[FlightRecorder] = None,
    paths: Optional[Sequence[TraceCriticalPath]] = None,
    alerts=None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One JSON-serializable post-mortem document.

    Sections are independent: any of the recorder, the extracted
    critical paths and the alert engine may be absent and its section
    is empty — a bundle from a run that only recorded events is still
    a bundle.
    """
    traces: List[Dict[str, Any]] = []
    fleet: Dict[str, Any] = {}
    closure = {"traces_checked": 0, "problems": []}
    if paths is not None:
        attribution = fleet_attribution(paths)
        traces = [path.as_dict() for path in paths]
        fleet = attribution.as_dict()
        closure = {
            "traces_checked": len(paths),
            "problems": list(attribution.closure_problems),
        }
    return {
        "schema": "repro.postmortem/v1",
        "meta": dict(meta or {}),
        "snapshots": list(recorder.snapshots) if recorder is not None else [],
        "alerts": [a.as_dict() for a in alerts.alerts] if alerts is not None else [],
        "traces": traces,
        "fleet": fleet,
        "closure": closure,
    }


def render_critical_path_table(paths: Sequence[TraceCriticalPath]) -> str:
    """Fixed-width per-trace critical-path table (one row per trace)."""
    header = (
        f"{'trace':28} {'status':12} {'dur_ms':>9} {'segs':>5}  verdict"
    )
    lines = [header, "-" * len(header)]
    for path in paths:
        if path.closure_problems:
            lines.append(
                f"{path.trace_id:28} {'BROKEN':12} {'-':>9} {'-':>5}  "
                + "; ".join(path.closure_problems)
            )
            continue
        lines.append(
            f"{path.trace_id:28} {path.status:12} {path.duration * 1e3:>9.4f} "
            f"{len(path.segments):>5}  {verdict(path.by_class())}"
        )
    if len(lines) == 2:
        lines.append("(no traces collected)")
    return "\n".join(lines)


def write_postmortem(
    outdir,
    bundle: Dict[str, Any],
    hubs=(),
    paths: Optional[Sequence[TraceCriticalPath]] = None,
) -> Dict[str, str]:
    """Write the bundle + companions; returns name → path written.

    ``postmortem.json`` is the bundle (sorted keys, stable layout),
    ``trace.json`` the Chrome trace over ``hubs``, and
    ``critical_paths.txt`` the human-readable table.
    """
    from ..telemetry.export import chrome_trace

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written: Dict[str, str] = {}

    bundle_path = out / "postmortem.json"
    bundle_path.write_text(
        json.dumps(bundle, indent=2, sort_keys=True) + "\n"
    )
    written["postmortem"] = str(bundle_path)

    trace_path = out / "trace.json"
    trace_path.write_text(
        json.dumps(chrome_trace(hubs), indent=2, sort_keys=True) + "\n"
    )
    written["trace"] = str(trace_path)

    if paths is not None:
        table_path = out / "critical_paths.txt"
        table_path.write_text(render_critical_path_table(paths) + "\n")
        written["critical_paths"] = str(table_path)
    return written
