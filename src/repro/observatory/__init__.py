"""Performance observatory: profiler, metrics registry, dashboard.

The quantitative lens on everything the rest of the repo simulates:

* :mod:`repro.observatory.profiler` — exact per-request blocking-time
  attribution (encrypt / wire-order / staging / control / PCIe /
  interconnect / decrypt), the Fig. 2 bottleneck verdict in the
  fleet's attribution vocabulary (:mod:`repro.tracing.critical_path`),
  speculation accounting;
* :mod:`repro.observatory.registry` — pull-style metric families with
  labels, Prometheus text exposition and JSON snapshots, driven purely
  by simulated time;
* :mod:`repro.observatory.dashboard` — ``python -m repro dash``, a
  live ASCII view (utilization, latency percentiles, speculation
  hit-rate, IV-audit status, degradation mode) that provably does not
  perturb the simulation;
* :mod:`repro.observatory.lint` — the structural wall-clock hygiene
  check keeping simulated and real time apart.
"""

from .lint import ALLOWED_WALL_CLOCK_FILES, wall_clock_call_sites
from .profiler import (
    AttributionProfile,
    RequestAttribution,
    SpeculationAccount,
    attribute_request,
    profile_hub,
    render_profile,
    render_waterfall,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bind_gateway,
    bind_machine,
)

__all__ = [
    "ALLOWED_WALL_CLOCK_FILES",
    "AttributionProfile",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RequestAttribution",
    "SpeculationAccount",
    "attribute_request",
    "bind_gateway",
    "bind_machine",
    "profile_hub",
    "render_profile",
    "render_waterfall",
    "wall_clock_call_sites",
]
