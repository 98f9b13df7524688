"""Performance observatory: profiler and dashboard.

The quantitative lens on everything the rest of the repo simulates:

* :mod:`repro.observatory.profiler` — exact per-request blocking-time
  attribution (encrypt / wire-order / staging / control / PCIe /
  interconnect / decrypt), the Fig. 2 bottleneck verdict in the
  fleet's attribution vocabulary (:mod:`repro.tracing.critical_path`),
  speculation accounting;
* :mod:`repro.observatory.dashboard` — ``python -m repro dash``, a
  live ASCII view (utilization, latency percentiles, speculation
  hit-rate, IV-audit status, degradation mode) read straight from the
  machine's :class:`~repro.sim.stats.MetricSet` and live hardware
  state, that provably does not perturb the simulation.
"""

from .profiler import (
    AttributionProfile,
    RequestAttribution,
    SpeculationAccount,
    attribute_request,
    profile_hub,
    render_profile,
    render_waterfall,
)

__all__ = [
    "AttributionProfile",
    "RequestAttribution",
    "SpeculationAccount",
    "attribute_request",
    "profile_hub",
    "render_profile",
    "render_waterfall",
]
