"""Critical-path profiler: blocking-time attribution per request.

The runtime's timed halves record the *exact* sequential wait
intervals of every request's wire path into its lifecycle record
(:meth:`repro.telemetry.hub.RequestRecord.mark_stage`): how long the
request waited for encryption readiness, the IV wire-order chain, the
private→shared staging bounce, the CC control plane, the PCIe DMA and
the CPU decryption. The intervals of one request are non-overlapping
and tile ``[submit_time, complete_time]`` up to a (reported) residual,
so attributing end-to-end latency is pure arithmetic here — no event
parsing, no double counting.

From those attributions the profiler derives the paper's Fig. 2
story at a glance:

* per-stage blocking-time totals and shares (aggregate and per
  request),
* a dominant-bottleneck **verdict** from the fleet's
  :func:`~repro.tracing.critical_path.verdict` over seconds per
  attribution class, with GPU busy seconds as ``compute`` —
  ``encryption-bound`` for the CC baseline, ``pcie-bound`` once
  speculation hides the AES wait, ``compute-bound`` when the GPUs
  outweigh every wait,
* **speculation accounting**: encryption seconds moved off the
  critical path by staged hits versus seconds wasted pre-encrypting
  chunks that were later invalidated, plus NOP-padding overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..sim.stats import mean, percentile
from ..telemetry.events import SpeculationEvent
from ..telemetry.hub import RequestRecord, TelemetryHub
from ..tracing.critical_path import CLASS_VERDICTS, class_totals, verdict

__all__ = [
    "AttributionProfile",
    "RequestAttribution",
    "SpeculationAccount",
    "attribute_request",
    "profile_hub",
    "render_class_shares",
    "render_profile",
    "render_waterfall",
]

@dataclass
class RequestAttribution:
    """Blocking-time breakdown of one request, summing to its latency."""

    request_id: int
    direction: str
    kind: str
    outcome: str
    strategy: str
    size: int
    submit_time: float
    complete_time: float
    #: Stage name → blocked seconds in record order, the "other" residual
    #: last, so ``sum(stages.values()) == total`` to float precision.
    stages: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        """End-to-end wire latency (submission to landing)."""
        return self.complete_time - self.submit_time

    def share(self, stage: str) -> float:
        return self.stages.get(stage, 0.0) / self.total if self.total > 0 else 0.0


def attribute_request(record: RequestRecord) -> Optional[RequestAttribution]:
    """Fold one completed lifecycle record into a stage breakdown.

    Returns None for requests that never completed (no latency to
    attribute). The residual between the recorded intervals and the
    wire latency lands in "other" — clamped at zero against float
    noise, so the invariant ``sum(stages) == total`` always holds.
    """
    total = record.wire_latency
    if not total == total or total < 0:  # nan-safe: incomplete request
        return None
    stages: Dict[str, float] = {}
    covered = 0.0
    for stage, start, end in record.stages:
        duration = end - start
        stages[stage] = stages.get(stage, 0.0) + duration
        covered += duration
    residual = total - covered
    if residual > 0.0:
        stages["other"] = residual
    elif residual < 0.0:
        # Float noise only; rescale so the invariant is exact.
        scale = total / covered if covered > 0 else 0.0
        for stage in stages:
            stages[stage] *= scale
    return RequestAttribution(
        request_id=record.request_id,
        direction=record.direction,
        kind=record.kind,
        outcome=record.outcome,
        strategy=record.strategy,
        size=record.size,
        submit_time=record.submit_time,
        complete_time=record.complete_time,
        stages=stages,
    )


@dataclass
class SpeculationAccount:
    """Encryption seconds moved off vs wasted by the pipeline (§5)."""

    #: AES seconds staged hits did NOT spend on the critical path
    #: (chunk bytes / one-thread AES bandwidth, per hit).
    saved_s: float = 0.0
    #: AES seconds spent pre-encrypting entries later invalidated.
    wasted_s: float = 0.0
    #: NOPs padded to close IV gaps (each costs one tiny wire message).
    nops_padded: int = 0
    hits: int = 0
    misses: int = 0
    invalidated: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def net_saved_s(self) -> float:
        return self.saved_s - self.wasted_s


@dataclass
class AttributionProfile:
    """Aggregate attribution over every completed request of one hub."""

    label: str
    requests: List[RequestAttribution]
    #: Stage → total blocked seconds across all requests.
    totals: Dict[str, float]
    speculation: SpeculationAccount
    #: GPU busy seconds over the horizon, summed over every GPU lane
    #: (0.0 when no tracer spans).
    compute_s: float = 0.0

    @property
    def total_blocked_s(self) -> float:
        return sum(self.totals.values())

    def share(self, stage: str) -> float:
        total = self.total_blocked_s
        return self.totals.get(stage, 0.0) / total if total > 0 else 0.0

    def by_class(self) -> Dict[str, float]:
        """Seconds per attribution class: blocked time plus GPU busy time."""
        seconds = class_totals(self.totals.items())
        if self.compute_s > 0:
            seconds["compute"] = seconds.get("compute", 0.0) + self.compute_s
        return seconds

    @property
    def verdict(self) -> str:
        """Dominant-bottleneck call, reproducing the Fig. 2 regimes."""
        return verdict(self.by_class())

    def latency_percentiles(self) -> Dict[str, float]:
        latencies = [r.total for r in self.requests]
        return {
            "p50": percentile(latencies, 50),
            "p95": percentile(latencies, 95),
            "p99": percentile(latencies, 99),
            "mean": mean(latencies),
        }

    def find(self, request_id: int) -> Optional[RequestAttribution]:
        for request in self.requests:
            if request.request_id == request_id:
                return request
        return None


def _speculation_account(
    hub: TelemetryHub, enc_bandwidth: Optional[float]
) -> SpeculationAccount:
    account = SpeculationAccount()
    for record in hub.requests:
        account.nops_padded += record.nops_padded
        if record.outcome in ("hit_now", "hit_future"):
            account.hits += 1
            if enc_bandwidth:
                account.saved_s += record.size / enc_bandwidth
        elif record.outcome in ("stale", "miss"):
            account.misses += 1
    for event in hub.events_of(SpeculationEvent):
        if event.action == "invalidate":
            account.invalidated += 1
            if enc_bandwidth:
                account.wasted_s += event.size / enc_bandwidth
    return account


def profile_hub(
    hub: TelemetryHub,
    horizon: Optional[float] = None,
    enc_bandwidth: Optional[float] = None,
) -> AttributionProfile:
    """Profile every completed request recorded on ``hub``.

    ``horizon`` (defaults to the hub's simulated now, else the last
    completion) clips each GPU lane's busy seconds; ``enc_bandwidth``
    (one-thread AES rate, B/s; defaults to the hub's) prices the
    speculation account.
    """
    requests = [
        attribution
        for attribution in (attribute_request(r) for r in hub.requests)
        if attribution is not None
    ]
    totals: Dict[str, float] = {}
    for request in requests:
        for stage, seconds in request.stages.items():
            totals[stage] = totals.get(stage, 0.0) + seconds

    if horizon is None:
        if hub.sim is not None:
            horizon = hub.sim.now
        elif requests:
            horizon = max(r.complete_time for r in requests)
        else:
            horizon = 0.0
    gpu_busy: Dict[str, float] = {}
    for span in hub.tracer.spans:
        if span.lane.rstrip("0123456789") == "gpu":  # gpu, gpu1, gpu2, ...
            gpu_busy[span.lane] = gpu_busy.get(span.lane, 0.0) + span.duration

    return AttributionProfile(
        label=hub.label,
        requests=requests,
        totals=totals,
        speculation=_speculation_account(hub, enc_bandwidth or hub.enc_bandwidth),
        compute_s=sum(min(horizon, busy) for busy in gpu_busy.values()),
    )


# -- rendering ----------------------------------------------------------


def _bar(fraction: float, width: int = 28) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def render_class_shares(profile: AttributionProfile, digits: int) -> str:
    """``aes 88.0% / pcie 12.0%``: shares of the verdict's class seconds."""
    seconds = profile.by_class()
    total = sum(seconds.values()) or 1.0
    return " / ".join(
        f"{cls} {100 * seconds[cls] / total:.{digits}f}%"
        for cls, _ in CLASS_VERDICTS if cls in seconds
    )


def render_waterfall(attribution: RequestAttribution, width: int = 56) -> str:
    """ASCII waterfall of one request's critical path.

    Each recorded stage becomes one row positioned on the request's
    own [submit, complete] timeline; the summary row restates the
    attribution invariant.
    """
    lines = [
        f"request {attribution.request_id}  {attribution.direction}"
        f"  {attribution.kind or '?'}  {attribution.size} B"
        + (f"  outcome={attribution.outcome}" if attribution.outcome else "")
        + (f"  strategy={attribution.strategy}" if attribution.strategy else ""),
        f"  submit {attribution.submit_time * 1e3:.4f} ms →"
        f" complete {attribution.complete_time * 1e3:.4f} ms"
        f"  (wire {attribution.total * 1e6:.2f} us)",
    ]
    total = attribution.total
    label_width = max((len(s) for s in attribution.stages), default=5) + 2
    for stage, seconds in attribution.stages.items():
        lines.append(
            f"  {stage.ljust(label_width)}"
            f"{_bar(seconds / total if total > 0 else 0.0, width)}"
            f" {seconds * 1e6:9.2f} us ({100 * attribution.share(stage):5.1f}%)"
        )
    covered = sum(attribution.stages.values())
    lines.append(
        f"  {'total'.ljust(label_width)}{' ' * width} {covered * 1e6:9.2f} us"
        f" (= wire latency)"
    )
    return "\n".join(lines)


def render_profile(profile: AttributionProfile) -> str:
    """Human-readable aggregate report for one profiled hub."""
    lines = [
        f"critical-path profile: {profile.label or 'machine'}"
        f"  ({len(profile.requests)} requests,"
        f" {profile.total_blocked_s * 1e3:.3f} ms blocked)",
        f"verdict: {profile.verdict}  ({render_class_shares(profile, 1)})",
    ]
    for stage in sorted(profile.totals, key=lambda s: s == "other"):
        share = profile.share(stage)
        lines.append(
            f"  {stage.ljust(12)}{_bar(share)}"
            f" {profile.totals[stage] * 1e3:9.3f} ms ({100 * share:5.1f}%)"
        )
    pct = profile.latency_percentiles()
    lines.append(
        f"  latency p50 {pct['p50'] * 1e6:.1f} us"
        f"  p95 {pct['p95'] * 1e6:.1f} us  p99 {pct['p99'] * 1e6:.1f} us"
    )
    spec = profile.speculation
    if spec.hits or spec.misses:
        lines.append(
            f"  speculation: hit-rate {100 * spec.hit_rate:.1f}%"
            f"  saved {spec.saved_s * 1e3:.3f} ms"
            f"  wasted {spec.wasted_s * 1e3:.3f} ms"
            f"  (net {spec.net_saved_s * 1e3:+.3f} ms,"
            f" {spec.nops_padded} NOPs, {spec.invalidated} invalidations)"
        )
    return "\n".join(lines)
