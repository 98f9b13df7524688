"""The fault-injection degradation campaign (``repro run faults``).

One workload — FlexGen model offloading on OPT-66B, the traffic whose
speculation the fault plane attacks hardest — swept across fault rates
and survival policies:

* ``adaptive`` — the default :class:`repro.faults.FaultPolicy`: the
  runtime degrades to non-speculative in-order encryption when the
  observed miss/desync rate crosses the threshold, then probes its way
  back to speculation once the storm passes;
* ``pinned-speculative`` — degradation disabled (the enter threshold
  is unreachable), measuring what staying speculative under the same
  storm costs.

The fault window is self-calibrating: a clean dry run measures the
baseline elapsed time T0, and every storm is windowed to
(0.15·T0, 0.55·T0) so the faults provably stop well before the run
ends — which is what makes the return to speculative mode observable
in the ``final_mode`` column.

Every run doubles as an acceptance check: a
:class:`~repro.cluster.tenant.ClusterIvAudit` is attached to both
channel endpoints (any (key, IV) reuse raises), every request must
complete, and at storm rates ≥ 0.3 the adaptive policy must have both
degraded and restored.
"""

from __future__ import annotations

from typing import Tuple

from ..cluster.tenant import ClusterIvAudit
from ..core import PipeLLMConfig
from ..faults import FaultInjector, FaultPlan, FaultPolicy, PipelineMode
from ..models import OPT_66B
from ..serving import FlexGenConfig, FlexGenEngine
from ..sim import default_seed
from ..tracing import AlertEngine, default_event_rules
from .experiments import (
    FLEXGEN_BATCH,
    OFFLOAD_DEC_THREADS,
    OFFLOAD_ENC_THREADS,
    flexgen_shapes,
    get_scale,
)
from .systems import pipellm
from .tables import ExperimentResult

__all__ = ["FULL_FAULT_RATES", "QUICK_FAULT_RATES", "fault_campaign"]

QUICK_FAULT_RATES: Tuple[float, ...] = (0.0, 0.3)
FULL_FAULT_RATES: Tuple[float, ...] = (0.0, 0.1, 0.3, 0.5)

#: The storm rate at which the acceptance criteria demand a full
#: degrade→restore cycle from the adaptive policy.
_ACCEPT_RATE = 0.3

_ADAPTIVE = FaultPolicy()
#: Degradation disabled: a miss EMA can never reach 1.0, so the
#: pipeline stays speculative through the whole storm.
_PINNED = FaultPolicy(enter_miss_rate=1.0)


def _run_once(scale, rate: float, policy: FaultPolicy, window: Tuple[float, float]):
    """One FlexGen run under one storm rate and survival policy."""
    system = pipellm(
        OFFLOAD_ENC_THREADS,
        OFFLOAD_DEC_THREADS,
        config=PipeLLMConfig(fault_policy=policy),
    )
    injector = None
    if rate > 0:
        plan = FaultPlan.storm(rate, start=window[0], stop=window[1])
        injector = FaultInjector(plan, seed=default_seed(7))
    machine, runtime = system.build(faults=injector)
    # Wire-latency percentiles come from per-request lifecycle records,
    # which only flow while the hub is enabled.
    machine.telemetry.enabled = True
    # Anomaly alerting over the same event stream: rules dimensioned to
    # the storm window, so a burst inside it pages exactly once.
    alert_window = window[1] - window[0] if window[1] > window[0] else 1.0
    alerts = AlertEngine(
        hub=machine.telemetry,
        event_rules=default_event_rules(window=alert_window),
    )
    alerts.watch(machine.telemetry)
    audit = ClusterIvAudit()
    machine.cpu_endpoint.attach_audit(audit)
    machine.gpu.endpoint.attach_audit(audit)
    shape = flexgen_shapes(scale)[0]
    engine = FlexGenEngine(
        machine,
        runtime,
        FlexGenConfig(
            OPT_66B, shape, batch_size=FLEXGEN_BATCH,
            n_requests=scale.flexgen_requests,
        ),
    )
    flexgen = engine.run()
    return machine, runtime, injector, audit, flexgen, alerts


def fault_campaign(scale="quick") -> ExperimentResult:
    """Throughput/p99 degradation table: fault rate × survival policy."""
    scale = get_scale(scale)
    rates = QUICK_FAULT_RATES if scale.name == "quick" else FULL_FAULT_RATES

    # Dry run at rate 0 calibrates the storm window against the clean
    # elapsed time (faulted runs only take longer, never shorter).
    _, _, _, _, dry, _ = _run_once(scale, 0.0, _ADAPTIVE, (0.0, 0.0))
    t0 = dry.elapsed
    window = (0.15 * t0, 0.55 * t0)

    result = ExperimentResult(
        "faults",
        "Fault-injection degradation campaign (FlexGen OPT-66B)",
        columns=[
            "fault_rate", "policy", "throughput_tok_s", "p99_wire_ms",
            "success_rate", "injected", "auth_recoveries",
            "mode_switches", "degraded_ms", "final_mode", "alerts",
        ],
    )
    result.add_note(
        f"storm window {window[0] * 1e3:.1f}-{window[1] * 1e3:.1f} ms "
        f"(clean run: {t0 * 1e3:.1f} ms); storm rate r injects "
        "mispredictions at r and tag-corruption/IV-desync at r/4 each"
    )
    result.add_note(
        f"fault seed {default_seed(7)}; workload seed via --seed as usual"
    )

    for rate in rates:
        for pname, policy in (
            ("adaptive", _ADAPTIVE), ("pinned-speculative", _PINNED)
        ):
            machine, runtime, injector, audit, flexgen, alerts = _run_once(
                scale, rate, policy, window
            )
            stats = runtime.stats()
            wire = machine.telemetry.metrics.latency("telemetry.h2d_wire_s")
            controller = runtime.fault_controller
            result.add_row(
                fault_rate=rate,
                policy=pname,
                throughput_tok_s=flexgen.throughput,
                p99_wire_ms=wire.p(99) * 1e3,
                success_rate=stats["success_rate"],
                injected=0 if injector is None else injector.injected_total,
                auth_recoveries=int(stats["auth_recoveries"]),
                mode_switches=int(stats["mode_switches"]),
                degraded_ms=stats["degraded_seconds"] * 1e3,
                final_mode=controller.mode.value,
                alerts=len(alerts.alerts),
            )

            # -- acceptance invariants, asserted on every row ---------
            if flexgen.generated_tokens <= 0:
                raise AssertionError(f"rate={rate} {pname}: no tokens generated")
            if audit.observed <= 0:
                raise AssertionError(f"rate={rate} {pname}: IV audit saw nothing")
            if rate > 0 and injector.injected_total <= 0:
                raise AssertionError(f"rate={rate} {pname}: storm injected nothing")
            entered = {mode for _, _, mode in controller.transitions}
            if pname == "adaptive" and rate >= _ACCEPT_RATE:
                if PipelineMode.DEGRADED.value not in entered:
                    raise AssertionError(
                        f"rate={rate}: adaptive policy never degraded"
                    )
                if controller.mode is not PipelineMode.SPECULATIVE:
                    raise AssertionError(
                        f"rate={rate}: speculation not restored after the storm "
                        f"(final mode {controller.mode.value})"
                    )
            if pname == "pinned-speculative" and entered:
                raise AssertionError(
                    f"rate={rate}: pinned policy changed mode: {entered}"
                )
            if rate == 0 and alerts.alerts:
                raise AssertionError(
                    f"{pname}: anomaly alerts fired on a clean run: "
                    f"{[a.rule for a in alerts.alerts]}"
                )
            if rate >= _ACCEPT_RATE and not alerts.alerts:
                raise AssertionError(
                    f"rate={rate} {pname}: storm produced no anomaly alert"
                )

    clean = result.find(fault_rate=rates[0], policy="adaptive")
    worst = result.find(fault_rate=rates[-1], policy="adaptive")
    if clean["throughput_tok_s"] > 0:
        drop = 100.0 * (1.0 - worst["throughput_tok_s"] / clean["throughput_tok_s"])
        result.add_note(
            f"adaptive throughput drop at rate {rates[-1]:g}: {drop:.1f}% "
            "(degraded in-order mode keeps completing requests)"
        )
    return result
