"""Live ASCII dashboard over one running machine (``repro dash``).

The dashboard *observes* a simulation without perturbing it: the
serving engine's main process is started, then the kernel is advanced
in fixed slices of simulated time and one frame is rendered per slice
from the machine's metrics and the critical-path profiler. Rendering is
strictly read-only — a run with ``render=False`` produces the exact
same simulation state and summary, which a test pins byte-for-byte.

Wall-clock use in this module is limited to ``time.sleep`` pacing of
the refresh loop (so a human can watch); no wall-clock value ever
enters a metric.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..bench.systems import SystemSpec, pipellm
from ..models import OPT_66B
from ..serving import FlexGenConfig, FlexGenEngine
from ..telemetry import recording
from ..workloads import SyntheticShape
from .profiler import profile_hub, render_class_shares

__all__ = [
    "Dashboard",
    "DashboardRun",
    "run_flexgen_dashboard",
    "run_serve_dashboard",
]


def _bar(fraction: float, width: int = 24) -> str:
    fraction = max(0.0, min(1.0, fraction))
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "." * (width - filled) + f"] {100 * fraction:5.1f}%"


def _percentiles(label: str, stat, scale: float, spec: str, unit: str) -> str:
    """One ``p50 / p95 / p99`` row of a :class:`LatencyStat`."""
    cells = [f"p{q} {stat.p(q) * scale:{spec}} {unit}" for q in (50, 95, 99)]
    return f"  {label}  " + "   ".join(cells)


def _sampled(metrics, name: str):
    """The latency stat ``name`` once it holds a sample, else None."""
    stat = metrics.latencies.get(name)
    return stat if stat is not None and stat.count else None


def _count(metrics, name: str) -> int:
    counter = metrics.counters.get(name)
    return int(counter.value) if counter is not None else 0


class Dashboard:
    """Renders one machine's live state as a fixed-width ASCII frame.

    Every panel reads the machine's (and gateway's) :class:`MetricSet`
    and live hardware occupancy directly, at render time.
    """

    def __init__(self, machine, runtime=None, gateway=None) -> None:
        self.machine = machine
        self.runtime = runtime
        self.gateway = gateway

    def _utilization(self, now: float) -> List[Tuple[str, float]]:
        """Busy fraction of each resource over ``now`` simulated
        seconds, sorted by resource name (:func:`_bar` clamps to 1)."""
        machine = self.machine
        pcie = machine.pcie
        busy = {
            "pcie": max(
                pcie.h2d.busy_time(), pcie.d2h.busy_time(),
                pcie.h2d_cc.busy_time(), pcie.d2h_cc.busy_time(),
            ) / now,
            "crypto-engine": machine.engine.utilization(now),
            "gpu": machine.gpu.compute_seconds / now,
        }
        if machine.interconnect is not None:
            for pipe in machine.interconnect.pipes():
                busy[pipe.name] = pipe.busy_time() / now
        return sorted(busy.items())

    def frame(self) -> str:
        now = self.machine.sim.now
        metrics = self.machine.metrics
        lines = [
            f"== repro dash · t={now * 1e3:10.3f} ms simulated ==",
            "",
            "utilization",
        ]
        if now > 0:
            for resource, value in self._utilization(now):
                lines.append(f"  {resource.ljust(14)}{_bar(value)}")

        lines.append("")
        lines.append("wire latency (simulated)")
        for direction in ("h2d", "d2h"):
            stat = _sampled(metrics, f"telemetry.{direction}_wire_s")
            if stat is not None:
                lines.append(_percentiles(direction, stat, 1e6, "9.1f", "us"))

        lines.append("")
        lines.append("speculation")
        validator = getattr(self.runtime, "validator", None)
        if validator is not None:
            lines.append(f"  hit-rate      {_bar(validator.success_rate)}")
        lines.append(
            f"  nops {_count(metrics, 'runtime.nops_sent')}"
            f"   on-demand {_count(metrics, 'runtime.ondemand_encryptions')}"
            f"   deferred {_count(metrics, 'runtime.deferred')}"
            f"   auth-recoveries {_count(metrics, 'runtime.auth_recoveries')}"
        )
        controller = getattr(self.runtime, "fault_controller", None)
        if controller is not None:
            lines.append(f"  pipeline mode {controller.mode.value.upper()}")

        if self.gateway is not None:
            served = self.gateway.metrics
            serve = {
                metric: _sampled(served, f"serve.{metric}_s")
                for metric in ("ttft", "tpot")
            }
            if any(stat is not None for stat in serve.values()):
                lines.append("")
                lines.append("serving (TTFT / TPOT)")
                for metric, stat in serve.items():
                    if stat is not None:
                        lines.append(_percentiles(metric, stat, 1e3, "8.2f", "ms"))
                lines.append(
                    f"  completed {_count(served, 'serve.completed')}"
                    f"   slo-ok {_count(served, 'serve.slo_attained')}"
                    f"   shed {_count(served, 'serve.shed')}"
                )

        hub = self.machine.telemetry
        if hub.enabled:
            from ..telemetry.export import event_lane

            lane_counts: Dict[str, int] = {}
            for event in hub.events:
                lane = event_lane(event)
                lane_counts[lane] = lane_counts.get(lane, 0) + 1
            lanes = "  ".join(
                f"{lane}={count}" for lane, count in sorted(lane_counts.items())
            ) or "none"
            lines.append("")
            lines.append("telemetry")
            lines.append(
                f"  events {len(hub.events)}"
                f"   ring-dropped {hub.dropped_events}"
            )
            lines.append(f"  lanes: {lanes}")

        lines.append("")
        endpoint = self.machine.cpu_endpoint
        if endpoint is not None:
            tx = endpoint.tx_iv.current
            rx = self.machine.gpu.endpoint.rx_iv.current
            status = "aligned" if tx == rx else f"desync ({tx - rx:+d})"
            lines.append(
                f"iv audit: cpu-tx {tx}  gpu-rx {rx}  {status}"
                f"   gpu auth failures {self.machine.gpu.auth_failures}"
            )

        if hub.enabled and hub.requests:
            profile = profile_hub(hub)
            lines.append(
                f"critical path: {profile.verdict}"
                f"  ({render_class_shares(profile, 0)}"
                f" over {len(profile.requests)} requests)"
            )
        return "\n".join(lines)


@dataclass
class DashboardRun:
    """Outcome of one dashboard-observed run.

    ``summary`` is a pure function of the simulation (never of
    rendering), so render on/off must produce identical summaries.
    """

    summary: Dict[str, Any]
    frames: List[str]


def _frame_loop(sim, dash, done, interval_s, render, sink, refresh_wall_s) -> List[str]:
    """Advance ``sim`` in ``interval_s`` slices of simulated time until
    ``done()``, rendering one frame per slice when ``render``."""
    if not interval_s > 0:
        raise ValueError(f"interval_s must be > 0, got {interval_s}")
    frames: List[str] = []
    while not done():
        before = sim.now
        sim.run(until=before + interval_s)
        if render:
            frame = dash.frame()
            frames.append(frame)
            if sink is not None:
                sink(frame)
            if refresh_wall_s > 0.0:
                time.sleep(refresh_wall_s)
        if sim.now == before:
            break  # drained without finishing — bug guard
    return frames


def run_flexgen_dashboard(
    system: Optional[SystemSpec] = None,
    n_requests: int = 12,
    output_len: int = 4,
    interval_s: float = 0.05,
    render: bool = True,
    sink: Optional[Callable[[str], None]] = None,
    refresh_wall_s: float = 0.0,
    seed: int = 1,
) -> DashboardRun:
    """Run FlexGen OPT-66B offloading with a live dashboard attached.

    ``interval_s`` is the frame period in **simulated** seconds;
    ``refresh_wall_s`` optionally sleeps between frames so the refresh
    is watchable in a terminal. With ``render=False`` no frame is
    built at all — the returned summary is identical either way.
    """
    if system is None:
        system = pipellm(8, 2)
    with recording():
        machine, runtime = system.build()
        config = FlexGenConfig(
            OPT_66B, SyntheticShape(32, output_len),
            batch_size=max(1, n_requests), n_requests=n_requests, seed=seed,
        )
        engine = FlexGenEngine(machine, runtime, config)
        dash = Dashboard(machine, runtime=runtime)

        machine.sim.process(engine._main())
        frames = _frame_loop(
            machine.sim, dash, lambda: engine.result is not None,
            interval_s, render, sink, refresh_wall_s,
        )
        result = engine.result

    profile = profile_hub(machine.telemetry)
    summary: Dict[str, Any] = {
        "system": system.name,
        "throughput_tok_s": result.throughput,
        "elapsed_s": result.elapsed,
        "generated_tokens": result.generated_tokens,
        "swap_ins": result.swap_in_count,
        "verdict": profile.verdict,
        "requests_profiled": len(profile.requests),
        "speculation_hit_rate": profile.speculation.hit_rate,
        "final_sim_time_s": machine.sim.now,
    }
    if hasattr(runtime, "stats"):
        stats = runtime.stats()
        summary["success_rate"] = stats.get("success_rate", 0.0)
        summary["nops_sent"] = stats.get("nops_sent", 0.0)
    if render and sink is not None:
        sink(dash.frame())
    return DashboardRun(summary=summary, frames=frames)


def run_serve_dashboard(
    rate: float = 10.0,
    duration: float = 4.0,
    system: str = "pipellm",
    interval_s: float = 0.25,
    render: bool = True,
    sink: Optional[Callable[[str], None]] = None,
    refresh_wall_s: float = 0.0,
    seed: int = 1,
) -> DashboardRun:
    """Online-serving run with a live dashboard over the gateway.

    Frames render replica 0's machine plus the gateway's serving
    plane: TTFT/TPOT p50/p95/p99 from the gateway's metrics and the
    completed / SLO-attained / shed counters. Same contract as the
    FlexGen dashboard: rendering is read-only, so ``render=False``
    yields an identical summary.
    """
    from ..bench.serve import serve_config
    from ..cluster import Cluster
    from ..serve import LoadSpec, ServeFrontend, generate_load

    with recording():
        cluster = Cluster(serve_config(system))
        frontend = ServeFrontend(cluster)
        load = LoadSpec(rate=rate, duration=duration, seed=seed)
        requests = generate_load(load)
        replica = cluster.replicas[0]
        dash = Dashboard(
            replica.machine, runtime=replica.runtime, gateway=cluster.gateway,
        )

        frontend.start(requests)
        frames = _frame_loop(
            cluster.sim, dash, lambda: len(frontend.responses) >= len(requests),
            interval_s, render, sink, refresh_wall_s,
        )
        result = frontend.result(
            duration, trace=load.trace.name, rate=load.rate
        )

    summary = result.as_dict()
    summary["final_sim_time_s"] = cluster.sim.now
    if render and sink is not None:
        sink(dash.frame())
    return DashboardRun(summary=summary, frames=frames)
