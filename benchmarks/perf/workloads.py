"""The four workloads of the host-time benchmark.

Each workload is one function ``run(seed, size)`` that drives a fixed
experiment through ``repro``'s public entry points and returns an
:class:`Outcome`: every simulated value it collected (the input of the
result digest), the headline ``sim_*`` numbers, operation counts,
per-layer simulated counters, and the names of the checks that
failed. ``setup(seed, size)`` builds the same machines and fleets
without running a simulation; ``run.py`` times it as ``setup_s``.

The seed reaches every generator explicitly (load specs, cluster and
fleet configs, fault injectors, FlexGen payloads). The process-wide
override that ``repro bench`` uses is set as well, for any generator
that only reads it, and restored afterwards.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List

__all__ = [
    "Checks",
    "Outcome",
    "SIZES",
    "SMALL_SIZES",
    "WORKLOADS",
    "Workload",
    "digest",
]


@dataclass
class Outcome:
    """What one iteration of a workload produced."""

    #: Every simulated value the workload collects; hashed into the
    #: result digest, so a change to any of them changes the digest.
    sim: Dict[str, Any]
    #: The workload's headline ``sim_*`` metrics (a subset of ``sim``).
    headline: Dict[str, float]
    #: Simulated requests offered, and how many were lost or left
    #: unfinished (sheds under overload are modelled, not failures).
    attempted: int
    failed: int
    #: Simulated per-layer values the tracer cannot count itself.
    layer_sim: Dict[str, float] = field(default_factory=dict)
    #: Names of the checks that failed (empty on a correct run).
    failures: List[str] = field(default_factory=list)


def canonical(values: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace, floats by repr."""
    return json.dumps(values, sort_keys=True, separators=(",", ":"), allow_nan=True)


def digest(values: Any) -> str:
    """sha256 of the canonical JSON of ``values``."""
    return hashlib.sha256(canonical(values).encode()).hexdigest()


class Checks:
    """Collects the names of failed checks."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def require(self, name: str, condition: bool) -> None:
        if not condition:
            self.failures.append(name)


@contextlib.contextmanager
def _seeded(seed: int) -> Iterator[None]:
    from repro.sim import default_seed, set_default_seed

    previous = default_seed(None)  # type: ignore[arg-type]
    set_default_seed(seed)
    try:
        yield
    finally:
        set_default_seed(previous)


# -- node: single-machine paths (Fig. 7 and §7.2) ------------------------


@dataclass(frozen=True)
class NodeSize:
    flexgen_requests: int = 48
    flexgen_prompt: int = 32
    flexgen_output: int = 16
    tp_batch: int = 64
    tp_tokens: int = 16


def _flexgen_system(system, seed: int, size: NodeSize, faults=None):
    from repro.models import OPT_66B
    from repro.serving import FlexGenConfig, FlexGenEngine
    from repro.workloads import SyntheticShape

    machine, runtime = system.build(faults=faults)
    engine = FlexGenEngine(machine, runtime, FlexGenConfig(
        OPT_66B, SyntheticShape(size.flexgen_prompt, size.flexgen_output),
        batch_size=size.flexgen_requests, n_requests=size.flexgen_requests,
        seed=seed,
    ))
    return machine, runtime, engine


def _gpu_contents(machine, engine) -> str:
    """Digest of the offloaded layers as they landed in device memory."""
    from repro.models import OPT_66B

    h = hashlib.sha256()
    for layer in engine.offloaded:
        payload = machine.gpu.read_plaintext(f"{OPT_66B.name}.layer.{layer}")
        h.update(b"-" if payload is None else payload)
    return h.hexdigest()


def _tp_machine(system: str, n_gpus: int = 2, faults=None):
    from repro.cc.machine import CcMode, build_machine
    from repro.cluster import ClusterIvAudit
    from repro.parallel import LinkSpeculator

    if system == "w/o CC":
        machine = build_machine(CcMode.DISABLED, n_gpus=n_gpus, faults=faults)
    elif system == "CC":
        machine = build_machine(CcMode.ENABLED, n_gpus=n_gpus, faults=faults)
    else:
        # The §7.2 staged configuration: enough crypto threads that
        # ciphertext generation outruns the bounce DMA.
        machine = build_machine(
            CcMode.ENABLED, n_gpus=n_gpus, enc_threads=8, dec_threads=8,
            faults=faults,
        )
    audit = ClusterIvAudit()
    machine.interconnect.attach_audit(audit)
    if system == "PipeLLM":
        machine.interconnect.attach_speculator(
            LinkSpeculator(lambda: machine.sim.now, faults=machine.faults)
        )
    return machine, audit


_TP_SYSTEMS = ("w/o CC", "CC", "PipeLLM")


def _node_systems():
    from repro.bench.systems import CC, WITHOUT_CC, pipellm

    return (WITHOUT_CC, CC, pipellm(8, 2))


def node_setup(seed: int, size: NodeSize) -> None:
    for system in _node_systems():
        _flexgen_system(system, seed, size)
    for system in _TP_SYSTEMS:
        _tp_machine(system)


def node(seed: int, size: NodeSize) -> Outcome:
    from repro.models import OPT_30B
    from repro.observatory import profile_hub
    from repro.parallel import TensorParallelEngine
    from repro.telemetry import recording

    checks = Checks()
    sim: Dict[str, Any] = {}
    contents = {}
    with _seeded(seed), recording():
        for system in _node_systems():
            machine, runtime, engine = _flexgen_system(system, seed, size)
            result = engine.run()
            profile = profile_hub(
                machine.telemetry, horizon=machine.sim.now,
                enc_bandwidth=machine.params.enc_bandwidth_per_thread,
            )
            wire = machine.metrics.latencies.get("telemetry.h2d_wire_s")
            entry = {
                "throughput_tok_s": result.throughput,
                "elapsed_s": result.elapsed,
                "generated_tokens": result.generated_tokens,
                "offloaded_layers": result.offloaded_layers,
                "swap_ins": result.swap_in_count,
                "verdict": profile.verdict,
                "attribution_s": dict(profile.totals),
                "attribution_share": {s: profile.share(s) for s in profile.totals},
                "p50_wire_s": wire.p(50) if wire is not None else None,
                "p99_wire_s": wire.p(99) if wire is not None else None,
                "gpu_contents": _gpu_contents(machine, engine),
                "auth_failures": machine.gpu.auth_failures,
            }
            if system.uses_pipellm:
                entry["runtime"] = runtime.stats()
            sim[f"flexgen/{system.name}"] = entry
            contents[system.name] = entry["gpu_contents"]
            checks.require(f"flexgen {system.name}: zero auth failures",
                           machine.gpu.auth_failures == 0)
            checks.require(f"flexgen {system.name}: tokens generated",
                           result.generated_tokens > 0)
    checks.require("flexgen: device contents identical across systems",
                   len(set(contents.values())) == 1)

    tp = {}
    with _seeded(seed):
        for system in _TP_SYSTEMS:
            machine, audit = _tp_machine(system)
            engine = TensorParallelEngine(machine, OPT_30B, batch=size.tp_batch, label=system)
            result = engine.run(output_tokens=size.tp_tokens)
            tp[system] = result
            sim[f"tp2/{system}"] = {
                "throughput_tok_s": result.throughput,
                "elapsed_s": result.elapsed_s,
                "tokens": result.tokens,
                "checksum": result.checksum,
                "hops": result.hops,
                "p2p_bytes": result.p2p_bytes,
                "bounce_bytes": result.bounce_bytes,
                "hit_rate": result.spec_hit_rate,
                "iv_observed": audit.observed,
                "iv_lanes": audit.keys_seen(),
            }
            checks.require(f"tp2 {system}: zero auth failures",
                           all(gpu.auth_failures == 0 for gpu in machine.gpus))
            if system != "w/o CC":
                checks.require(f"tp2 {system}: IV audit saw link traffic", audit.observed > 0)
    checks.require("tp2: checksum equal across systems",
                   len({r.checksum for r in tp.values()}) == 1)

    nocc, cc, pipe = (tp[s].throughput for s in _TP_SYSTEMS)
    flex = sim["flexgen/PipeLLM"]
    flex_cc = sim["flexgen/CC"]
    shares = flex["attribution_share"]
    return Outcome(
        sim=sim,
        headline={
            "sim_tok_s": flex["throughput_tok_s"],
            "sim_speedup_vs_cc": flex["throughput_tok_s"] / flex_cc["throughput_tok_s"],
            "sim_tp_recovery": (pipe - cc) / (nocc - cc),
        },
        attempted=3 * size.flexgen_requests + 3 * size.tp_batch,
        failed=0,
        layer_sim={
            "hw.crit.encrypt_share": shares.get("encrypt", 0.0),
            "hw.crit.pcie_share": shares.get("pcie", 0.0),
        },
        failures=checks.failures,
    )


# -- serve: the online front end over a two-replica cluster --------------


@dataclass(frozen=True)
class ServeSize:
    rates: tuple = (12.0, 24.0)
    duration: float = 30.0


_SERVE_SYSTEMS = ("cc", "pipellm")


def _serve_config(system: str, seed: int):
    from repro.bench.serve import SERVE_MAX_OUTSTANDING, SERVE_RESERVE_BYTES
    from repro.core import ClusterConfig

    return ClusterConfig(
        replicas=2, system=system, policy="least-loaded",
        reserve_bytes=SERVE_RESERVE_BYTES, max_outstanding=SERVE_MAX_OUTSTANDING,
        seed=seed,
    )


def serve_setup(seed: int, size: ServeSize) -> None:
    from repro.cluster import Cluster
    from repro.models import OPT_13B

    for system in _SERVE_SYSTEMS:
        for _rate in size.rates:
            Cluster(_serve_config(system, seed), spec=OPT_13B)


def serve(seed: int, size: ServeSize) -> Outcome:
    from repro.serve import LoadSpec, SloSpec, run_serve
    from repro.sim import percentile
    from repro.workloads import SHAREGPT_SERVE

    checks = Checks()
    sim: Dict[str, Any] = {}
    attempted = failed = 0
    runs = {}
    with _seeded(seed):
        for system in _SERVE_SYSTEMS:
            for rate in size.rates:
                load = LoadSpec(trace=SHAREGPT_SERVE, rate=rate,
                                duration=size.duration, seed=seed)
                result = run_serve(_serve_config(system, seed), load,
                                   slo=SloSpec(), admission="slo", seed=seed)
                label = f"{system}@{rate:g}"
                runs[label] = result
                entry = result.as_dict()
                entry["ttfts"] = list(result.ttfts)
                entry["tpots"] = list(result.tpots)
                entry["p95_ttft_s"] = percentile(result.ttfts, 95)
                sim[label] = entry
                attempted += result.offered
                lost = result.offered - result.completed - result.shed
                failed += max(0, lost)
                checks.require(f"serve {label}: ledger closed", lost == 0)
                checks.require(f"serve {label}: zero auth failures",
                               result.auth_failures == 0)
                checks.require(f"serve {label}: requests completed", result.completed > 0)

    top = runs[f"pipellm@{max(size.rates):g}"]
    return Outcome(
        sim=sim,
        headline={
            "sim_goodput_rps": top.goodput,
            "sim_ttft_p50_s": top.p50_ttft,
            "sim_ttft_p95_s": percentile(top.ttfts, 95),
            "sim_attainment": top.attainment,
        },
        attempted=attempted,
        failed=failed,
        layer_sim={"serve.swap_outs": float(sum(r.swap_outs for r in runs.values()))},
        failures=checks.failures,
    )


# -- disagg: prefill/decode split with encrypted KV migration ------------


@dataclass(frozen=True)
class DisaggSize:
    rate: float = 12.0
    duration: float = 4.0
    tenants: int = 4


def _disagg_configs(seed: int):
    from repro.core import DisaggConfig

    return {
        "mono-4/cc": DisaggConfig(prefill_workers=0, decode_workers=4,
                                  system="cc", seed=seed),
        "1p+3d/pipellm": DisaggConfig(prefill_workers=1, decode_workers=3,
                                      system="pipellm", seed=seed),
    }


def disagg_setup(seed: int, size: DisaggSize) -> None:
    from repro.disagg import DisaggCluster

    for config in _disagg_configs(seed).values():
        DisaggCluster(config)


def _disagg_entry(cluster, result) -> Dict[str, Any]:
    entry = result.as_dict()
    entry["ttfts"] = list(result.ttfts)
    entry["latencies"] = list(result.latencies)
    entry["fabric"] = cluster.fabric.stats()
    return entry


def _check_fleet(checks: Checks, label: str, cluster, result) -> int:
    """Ledger closure and zero device auth failures; returns lost requests."""
    lost = result.offered - result.completed - result.shed
    checks.require(f"{label}: nothing unfinished", result.unfinished == 0)
    checks.require(f"{label}: ledger closed", lost == 0)
    checks.require(
        f"{label}: zero auth failures",
        all(w.machine.gpu.auth_failures == 0 for w in cluster.workers),
    )
    return max(lost, result.unfinished)


def disagg(seed: int, size: DisaggSize) -> Outcome:
    from repro.disagg import DisaggCluster

    checks = Checks()
    sim: Dict[str, Any] = {}
    attempted = failed = 0
    runs = {}
    with _seeded(seed):
        for label, config in _disagg_configs(seed).items():
            cluster = DisaggCluster(config)
            result = cluster.run(cluster.workload(
                size.rate, size.duration, tenants=size.tenants
            ))
            runs[label] = result
            sim[label] = _disagg_entry(cluster, result)
            attempted += result.offered
            failed += _check_fleet(checks, label, cluster, result)
    split = runs["1p+3d/pipellm"]
    checks.require("1p+3d/pipellm: migrations fed the IV audit", split.iv_observed > 0)
    return Outcome(
        sim=sim,
        headline={
            "sim_goodput_rps": split.goodput,
            "sim_ttft_p50_s": split.p50_ttft,
            "sim_migration_us_per_chunk": split.migration_s_per_chunk * 1e6,
        },
        attempted=attempted,
        failed=failed,
        failures=checks.failures,
    )


# -- storm: the same layers on the miss path -----------------------------


@dataclass(frozen=True)
class StormSize:
    flexgen_requests: int = 48
    flexgen_prompt: int = 32
    flexgen_output: int = 8
    storm_rate: float = 0.3
    tp_tokens: int = 8
    tp_batch: int = 64
    link_rate: float = 0.5
    migration_rate: float = 0.6
    migration_rps: float = 18.0
    migration_duration: float = 3.0


def _storm_system():
    from repro.bench.systems import pipellm
    from repro.core import PipeLLMConfig
    from repro.faults import FaultPolicy

    return pipellm(8, 2, config=PipeLLMConfig(fault_policy=FaultPolicy()))


def _storm_flexgen(seed: int, size: StormSize, window):
    """FlexGen PipeLLM under a storm windowed to ``window`` (None = clean)."""
    from repro.cluster import ClusterIvAudit
    from repro.faults import FaultInjector, FaultPlan
    from repro.tracing import AlertEngine, default_event_rules

    injector = None
    if window is not None:
        plan = FaultPlan.storm(size.storm_rate, start=window[0], stop=window[1])
        injector = FaultInjector(plan, seed=seed)
    machine, runtime, engine = _flexgen_system(
        _storm_system(), seed,
        NodeSize(size.flexgen_requests, size.flexgen_prompt, size.flexgen_output),
        faults=injector,
    )
    # Wire-latency records and anomaly alerts need the hub enabled.
    machine.telemetry.enabled = True
    span = window[1] - window[0] if window is not None else 1.0
    alerts = AlertEngine(hub=machine.telemetry, event_rules=default_event_rules(window=span))
    alerts.watch(machine.telemetry)
    audit = ClusterIvAudit()
    machine.cpu_endpoint.attach_audit(audit)
    machine.gpu.endpoint.attach_audit(audit)
    result = engine.run()
    return machine, runtime, injector, audit, alerts, result


def _migration_storm_config(seed: int, size: StormSize):
    from repro.core import DisaggConfig
    from repro.faults import FaultPlan

    return DisaggConfig(
        prefill_workers=1, decode_workers=3, system="pipellm", seed=seed,
        fault_plan=FaultPlan.migration_storm(
            size.migration_rate, stop=size.migration_duration / 2
        ),
    )


def storm_setup(seed: int, size: StormSize) -> None:
    from repro.disagg import DisaggCluster
    from repro.faults import FaultInjector, FaultPlan

    flex = NodeSize(size.flexgen_requests, size.flexgen_prompt, size.flexgen_output)
    _flexgen_system(_storm_system(), seed, flex)
    _flexgen_system(_storm_system(), seed, flex,
                    faults=FaultInjector(FaultPlan.storm(size.storm_rate), seed=seed))
    _tp_machine("w/o CC")
    _tp_machine("PipeLLM", faults=FaultInjector(FaultPlan.link_storm(size.link_rate), seed=seed))
    DisaggCluster(_migration_storm_config(seed, size))


def storm(seed: int, size: StormSize) -> Outcome:
    from repro.bench.disagg import STRESS_TRACE
    from repro.disagg import DisaggCluster
    from repro.faults import FaultInjector, FaultPlan, PipelineMode
    from repro.models import OPT_30B
    from repro.parallel import TensorParallelEngine

    checks = Checks()
    sim: Dict[str, Any] = {}
    with _seeded(seed):
        # A clean run calibrates the storm window to 15-55 % of its
        # elapsed time, so the faults stop well before the run ends.
        _, _, _, _, _, clean = _storm_flexgen(seed, size, None)
        window = (0.15 * clean.elapsed, 0.55 * clean.elapsed)
        machine, runtime, injector, audit, alerts, stormy = _storm_flexgen(seed, size, window)
        stats = runtime.stats()
        controller = runtime.fault_controller
        entered = {mode for _, _, mode in controller.transitions}
        sim["flexgen"] = {
            "clean_throughput_tok_s": clean.throughput,
            "clean_elapsed_s": clean.elapsed,
            "storm_throughput_tok_s": stormy.throughput,
            "storm_elapsed_s": stormy.elapsed,
            "generated_tokens": stormy.generated_tokens,
            "runtime": stats,
            "injected": dict(injector.counts),
            "recoveries": dict(injector.recoveries),
            "transitions": [list(t) for t in controller.transitions],
            "final_mode": controller.mode.value,
            "alerts": [a.rule for a in alerts.alerts],
            "iv_observed": audit.observed,
            "gpu_auth_failures": machine.gpu.auth_failures,
        }
        # Injected tag corruption makes the copy engine reject deliveries
        # by design; a recovery that did not land would raise, so the
        # run completing every token is the check.
        checks.require("flexgen storm: every token generated",
                       stormy.generated_tokens == clean.generated_tokens > 0)
        checks.require("flexgen storm: faults injected", injector.injected_total > 0)
        checks.require("flexgen storm: IV audit saw traffic", audit.observed > 0)
        checks.require("flexgen storm: auth failures were recovered",
                       machine.gpu.auth_failures == 0 or stats["auth_recoveries"] > 0)
        checks.require("flexgen storm: adaptive policy degraded",
                       PipelineMode.DEGRADED.value in entered)
        checks.require("flexgen storm: speculation restored",
                       controller.mode is PipelineMode.SPECULATIVE)
        checks.require("flexgen storm: anomaly alert fired", bool(alerts.alerts))

        tp = {}
        for system, faults in (
            ("w/o CC", None),
            ("PipeLLM", FaultInjector(FaultPlan.link_storm(size.link_rate), seed=seed)),
        ):
            tp_machine, tp_audit = _tp_machine(system, faults=faults)
            engine = TensorParallelEngine(tp_machine, OPT_30B, batch=size.tp_batch, label=system)
            tp[system] = result = engine.run(output_tokens=size.tp_tokens)
            checks.require(f"tp2 link storm {system}: zero auth failures",
                           all(gpu.auth_failures == 0 for gpu in tp_machine.gpus))
            sim[f"tp2/{system}"] = {
                "throughput_tok_s": result.throughput,
                "checksum": result.checksum,
                "hops": result.hops,
                "bounce_bytes": result.bounce_bytes,
                "hit_rate": result.spec_hit_rate,
                "iv_observed": tp_audit.observed,
                "injected": dict(faults.counts) if faults is not None else {},
            }
        checks.require("tp2 link storm: checksum equals the clean w/o-CC run",
                       tp["PipeLLM"].checksum == tp["w/o CC"].checksum)
        checks.require("tp2 link storm: faults injected", bool(sim["tp2/PipeLLM"]["injected"]))

        cluster = DisaggCluster(_migration_storm_config(seed, size))
        result = cluster.run(cluster.workload(
            size.migration_rps, size.migration_duration, tenants=1, trace=STRESS_TRACE
        ))
        sim["disagg-storm"] = _disagg_entry(cluster, result)
        sim["disagg-storm"]["parked"] = cluster.fabric.speculator.parked
        failed = _check_fleet(checks, "disagg storm", cluster, result)
        checks.require("disagg storm: chunks retransmitted", result.migration_resends > 0)

    attempted = 2 * size.flexgen_requests + 2 * size.tp_batch + result.offered
    return Outcome(
        sim=sim,
        headline={
            "sim_tok_s": stormy.throughput,
            "sim_migration_us_per_chunk": result.migration_s_per_chunk * 1e6,
        },
        attempted=attempted,
        failed=failed,
        failures=checks.failures,
    )


# -- registry ------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is stated in ``BENCHMARK.json``."""

    name: str
    run: Callable[[int, Any], Outcome]
    setup: Callable[[int, Any], None]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("node", node, node_setup),
        Workload("serve", serve, serve_setup),
        Workload("disagg", disagg, disagg_setup),
        Workload("storm", storm, storm_setup),
    )
}

#: Full sizes: what the benchmark measures.
SIZES: Dict[str, Any] = {
    "node": NodeSize(),
    "serve": ServeSize(),
    "disagg": DisaggSize(),
    "storm": StormSize(),
}

#: Reduced sizes for the self-tests.
SMALL_SIZES: Dict[str, Any] = {
    "node": NodeSize(flexgen_requests=8, flexgen_output=4, tp_batch=8, tp_tokens=2),
    "serve": ServeSize(rates=(12.0,), duration=2.0),
    "disagg": DisaggSize(rate=6.0, duration=1.0),
    "storm": StormSize(flexgen_requests=16, flexgen_output=4, tp_tokens=2,
                       tp_batch=16, migration_rps=6.0, migration_duration=1.0),
}
