"""Continuous benchmark harness (``python -m repro bench``).

Runs a pinned-seed suite over the repo's standing campaigns — the
Fig. 2 microbenchmark, FlexGen offloading under CC and PipeLLM (with
full critical-path attribution from :mod:`repro.observatory`), the
multi-replica cluster, a fault storm, multi-GPU parallel decode, the
online-serving front end and the disaggregated prefill/decode fleet —
and writes one
schema-versioned ``BENCH_<n>.json`` artifact per run: throughput,
per-stage attribution, speculation stats, bottleneck verdicts and
wall-clock.

The paired comparator diffs two artifacts' **key metrics** (each
tagged with its improvement direction) and reports anything that
moved past the regression tolerance (default 5 %). Gated key metrics
are simulated quantities, so two same-seed runs compare exactly
equal. Wall-clock is tracked as a **warn-level** key metric: the
comparator reports movement in a separate ``warnings`` bucket that
never fails the gate (wall time is machine- and load-dependent), but
keeps the fast-path speedup visible run over run.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..cluster import run_cluster
from ..core import ClusterConfig
from ..models import OPT_30B, OPT_66B
from ..observatory import profile_hub
from ..parallel import TensorParallelEngine
from ..sim import default_seed, set_default_seed
from ..telemetry import recording
from ..workloads import SyntheticShape
from .experiments import (
    OFFLOAD_DEC_THREADS,
    OFFLOAD_ENC_THREADS,
    Scale,
    fig2_microbenchmark,
    run_flexgen,
)
from .faults import _ADAPTIVE, _run_once
from .parallel import _SYSTEMS, _build as _parallel_build
from .systems import CC, WITHOUT_CC, pipellm

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "SUITES",
    "compare_artifacts",
    "find_latest_artifact",
    "load_artifact",
    "next_artifact_path",
    "render_comparison",
    "run_suite",
]

BENCH_SCHEMA_VERSION = 1

#: Default regression tolerance: relative change beyond which a key
#: metric counts as regressed (in its bad direction).
REGRESSION_TOLERANCE = 0.05

_ARTIFACT_RE = re.compile(r"^BENCH_(\d+)\.json$")


@dataclass(frozen=True)
class SuiteScale:
    """Run sizes of one suite variant."""

    name: str
    flexgen_requests: int
    flexgen_output: int
    cluster_rate: float
    cluster_duration: float
    cluster_tenants: int
    fig2_transfers: int
    parallel_gpus: int
    parallel_batch: int
    parallel_tokens: int
    serve_rate: float
    serve_duration: float
    disagg_rate: float
    disagg_duration: float

    @property
    def experiment_scale(self) -> Scale:
        """The experiment :class:`Scale` the fig2 and faults campaigns run at."""
        return Scale(
            name=f"bench-{self.name}", flexgen_requests=self.flexgen_requests,
            flexgen_output=self.flexgen_output, vllm_duration=10.0,
            peft_steps=2, fig2_transfers=self.fig2_transfers,
        )


SUITES: Dict[str, SuiteScale] = {
    "standard": SuiteScale(
        name="standard", flexgen_requests=48, flexgen_output=8,
        cluster_rate=4.0, cluster_duration=10.0, cluster_tenants=4,
        fig2_transfers=64,
        parallel_gpus=2, parallel_batch=64, parallel_tokens=3,
        serve_rate=24.0, serve_duration=5.0,
        disagg_rate=12.0, disagg_duration=4.0,
    ),
    "smoke": SuiteScale(
        name="smoke", flexgen_requests=16, flexgen_output=4,
        cluster_rate=3.0, cluster_duration=5.0, cluster_tenants=3,
        fig2_transfers=32,
        parallel_gpus=2, parallel_batch=32, parallel_tokens=2,
        serve_rate=16.0, serve_duration=3.0,
        disagg_rate=8.0, disagg_duration=2.5,
    ),
}


def _key(
    value: float, higher_is_better: bool, level: Optional[str] = None
) -> Dict[str, Any]:
    """One key-metric entry; ``level="warn"`` marks it non-gating.

    The ``level`` field is only emitted when set, so gated metrics
    keep the exact shape of every artifact already on disk.
    """
    out: Dict[str, Any] = {
        "value": float(value), "higher_is_better": bool(higher_is_better),
    }
    if level is not None:
        out["level"] = level
    return out


def _profiled_flexgen(system, suite: SuiteScale, seed: int) -> Dict[str, Any]:
    """One FlexGen OPT-66B run with full critical-path attribution."""
    shape = SyntheticShape(32, suite.flexgen_output)
    with recording() as session:
        result, runtime = run_flexgen(
            system, OPT_66B, shape, suite.flexgen_requests, suite.flexgen_requests
        )
    hub = session.hubs[0]
    machine = runtime.machine
    profile = profile_hub(
        hub, horizon=machine.sim.now,
        enc_bandwidth=machine.params.enc_bandwidth_per_thread,
    )
    wire = machine.metrics.latencies.get("telemetry.h2d_wire_s")
    out: Dict[str, Any] = {
        "system": system.name,
        "throughput_tok_s": result.throughput,
        "elapsed_s": result.elapsed,
        "swap_ins": result.swap_in_count,
        "verdict": profile.verdict,
        "attribution_s": {s: profile.totals[s] for s in sorted(profile.totals)},
        "attribution_share": {
            s: profile.share(s) for s in sorted(profile.totals)
        },
        "p50_wire_s": wire.p(50) if wire is not None else 0.0,
        "p99_wire_s": wire.p(99) if wire is not None else 0.0,
    }
    if hasattr(runtime, "stats"):
        stats = runtime.stats()
        out["speculation"] = {
            "hit_rate": stats["success_rate"],
            "saved_s": profile.speculation.saved_s,
            "wasted_s": profile.speculation.wasted_s,
            "nops_sent": stats["nops_sent"],
            "staged_total": stats["staged_total"],
            "invalidated": profile.speculation.invalidated,
        }
    return out


def _micro_campaign(suite: SuiteScale, seed: int) -> Dict[str, Any]:
    table = fig2_microbenchmark(suite.experiment_scale)
    out: Dict[str, Any] = {}
    for row in table.rows:
        key = f"{row['system']}@{row['size']}".replace(" ", "")
        out[key] = {
            "latency_us": row["latency_us"],
            "throughput_gbps": row["throughput_gbps"],
        }
    return out


def _project(run, where: str, keys: Tuple[str, ...], **renamed: str) -> Dict[str, Any]:
    """Check ``run``'s ledger closes, then pick ``keys`` from its
    ``as_dict()``; ``renamed`` maps an artifact key to the summary key
    it reads."""
    run.check(where)
    summary = run.as_dict()
    return {key: summary[renamed.get(key, key)] for key in keys}


def _cluster_campaign(suite: SuiteScale, seed: int) -> Dict[str, Any]:
    config = ClusterConfig(replicas=2, system="pipellm", seed=seed)
    result = run_cluster(
        config, rate=suite.cluster_rate, duration=suite.cluster_duration,
        tenants=suite.cluster_tenants,
    )
    return _project(
        result, "cluster",
        ("offered", "completed", "shed", "throughput_req_s", "p50_latency_s",
         "p99_latency_s", "iv_observed", "auth_failures"),
        throughput_req_s="throughput_rps",
    )


def _faults_campaign(suite: SuiteScale, seed: int) -> Dict[str, Any]:
    scale = suite.experiment_scale
    # Clean run calibrates the storm window, exactly like the full
    # campaign; both runs contribute metrics.
    _, _, _, _, dry, _ = _run_once(scale, 0.0, _ADAPTIVE, (0.0, 0.0))
    window = (0.15 * dry.elapsed, 0.55 * dry.elapsed)
    machine, runtime, injector, audit, stormy, _ = _run_once(
        scale, 0.3, _ADAPTIVE, window
    )
    stats = runtime.stats()
    return {
        "clean_throughput_tok_s": dry.throughput,
        "storm_rate": 0.3,
        "storm_throughput_tok_s": stormy.throughput,
        "injected": injector.injected_total,
        "auth_recoveries": stats["auth_recoveries"],
        "mode_switches": stats["mode_switches"],
        "final_mode": runtime.fault_controller.mode.value,
        "iv_observed": audit.observed,
    }


def _parallel_campaign(suite: SuiteScale, seed: int) -> Dict[str, Any]:
    """Multi-GPU TP decode across the three systems (one GPU count)."""
    runs = {}
    audit = None
    for system in _SYSTEMS:
        machine, system_audit = _parallel_build(system, suite.parallel_gpus)
        engine = TensorParallelEngine(
            machine, OPT_30B, batch=suite.parallel_batch, label=system
        )
        runs[system] = engine.run(output_tokens=suite.parallel_tokens)
        if system == "PipeLLM":
            audit = system_audit
    nocc, cc, pipe = (runs[s] for s in _SYSTEMS)
    gap = nocc.throughput - cc.throughput
    return {
        "n_gpus": suite.parallel_gpus,
        "nocc_throughput_tok_s": nocc.throughput,
        "cc_throughput_tok_s": cc.throughput,
        "pipellm_throughput_tok_s": pipe.throughput,
        "recovery": (pipe.throughput - cc.throughput) / gap if gap > 0 else 0.0,
        "hit_rate": pipe.spec_hit_rate,
        "hops": pipe.hops,
        "bounce_bytes": pipe.bounce_bytes,
        "iv_observed": audit.observed if audit is not None else 0,
        "checksum": pipe.checksum,
    }


def _serve_campaign(suite: SuiteScale, seed: int) -> Dict[str, Any]:
    """Online-serving front end: CC vs PipeLLM at one offered load."""
    from ..serve import LoadSpec, SloSpec, run_serve
    from ..workloads import SHAREGPT_SERVE
    from .serve import SERVE_MAX_OUTSTANDING, SERVE_RESERVE_BYTES

    out: Dict[str, Any] = {
        "rate_rps": suite.serve_rate,
        "duration_s": suite.serve_duration,
    }
    for system in ("cc", "pipellm"):
        config = ClusterConfig(
            replicas=2, system=system, policy="least-loaded",
            reserve_bytes=SERVE_RESERVE_BYTES,
            max_outstanding=SERVE_MAX_OUTSTANDING,
        )
        load = LoadSpec(
            trace=SHAREGPT_SERVE, rate=suite.serve_rate,
            duration=suite.serve_duration,
        )
        run = run_serve(config, load, slo=SloSpec(), admission="slo")
        out[system] = _project(
            run, f"serve {system}",
            ("offered", "completed", "shed", "attainment", "goodput_rps",
             "p99_ttft_s", "mean_tpot_s", "swap_outs", "auth_failures"),
        )
    return out


def _disagg_campaign(suite: SuiteScale, seed: int) -> Dict[str, Any]:
    """Disaggregated prefill/decode vs monolithic at one offered load."""
    from ..core import DisaggConfig
    from ..disagg import run_disagg

    out: Dict[str, Any] = {
        "rate_rps": suite.disagg_rate,
        "duration_s": suite.disagg_duration,
    }
    configs = {
        "mono": DisaggConfig(prefill_workers=0, decode_workers=4,
                             system="cc", seed=seed),
        "disagg": DisaggConfig(prefill_workers=1, decode_workers=3,
                               system="pipellm", seed=seed),
    }
    for label, config in configs.items():
        run = run_disagg(
            config, rate=suite.disagg_rate, duration=suite.disagg_duration
        )
        out[label] = _project(
            run, f"disagg {label}",
            ("offered", "completed", "shed", "goodput_rps", "p50_ttft_s",
             "p99_ttft_s", "migration_chunks", "migration_hit_rate",
             "migration_s_per_chunk", "iv_observed"),
        )
    return out


#: Every campaign of a suite, in artifact order. Each takes the suite
#: scale and the seed and runs under that seed's process-wide
#: override; none depends on another having run first.
CAMPAIGNS: Dict[str, Callable[[SuiteScale, int], Dict[str, Any]]] = {
    "micro-fig2": _micro_campaign,
    "offload-nocc": lambda suite, seed: _profiled_flexgen(WITHOUT_CC, suite, seed),
    "offload-cc": lambda suite, seed: _profiled_flexgen(CC, suite, seed),
    "offload-pipellm": lambda suite, seed: _profiled_flexgen(
        pipellm(OFFLOAD_ENC_THREADS, OFFLOAD_DEC_THREADS), suite, seed
    ),
    "cluster": _cluster_campaign,
    "faults": _faults_campaign,
    "parallel": _parallel_campaign,
    "serve": _serve_campaign,
    "disagg": _disagg_campaign,
}


#: The gated key metrics: (name, campaign, key path, higher_is_better).
#: Each is one simulated campaign value, deterministic under (suite,
#: seed); ``pipellm_speedup_over_cc`` is the one derived entry.
KEY_METRICS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("micro_cc_32mb_gbps", "micro-fig2", "CC@32MB.throughput_gbps", True),
    ("micro_nocc_32mb_gbps", "micro-fig2", "w/oCC@32MB.throughput_gbps", True),
    ("offload_cc_throughput_tok_s", "offload-cc", "throughput_tok_s", True),
    ("offload_pipellm_throughput_tok_s", "offload-pipellm", "throughput_tok_s", True),
    ("pipellm_hit_rate", "offload-pipellm", "speculation.hit_rate", True),
    ("pipellm_p99_wire_s", "offload-pipellm", "p99_wire_s", False),
    ("pipellm_encrypt_share", "offload-pipellm", "attribution_share.encrypt", False),
    ("cluster_throughput_req_s", "cluster", "throughput_req_s", True),
    ("cluster_p99_latency_s", "cluster", "p99_latency_s", False),
    ("faults_storm_throughput_tok_s", "faults", "storm_throughput_tok_s", True),
    ("parallel_nocc_tok_s", "parallel", "nocc_throughput_tok_s", True),
    ("parallel_cc_tok_s", "parallel", "cc_throughput_tok_s", True),
    ("parallel_pipellm_tok_s", "parallel", "pipellm_throughput_tok_s", True),
    ("parallel_recovery", "parallel", "recovery", True),
    ("parallel_hit_rate", "parallel", "hit_rate", True),
    ("serve_pipellm_goodput_rps", "serve", "pipellm.goodput_rps", True),
    ("serve_pipellm_attainment", "serve", "pipellm.attainment", True),
    ("serve_pipellm_p99_ttft_s", "serve", "pipellm.p99_ttft_s", False),
    ("serve_cc_goodput_rps", "serve", "cc.goodput_rps", True),
    ("disagg_goodput_rps", "disagg", "disagg.goodput_rps", True),
    ("disagg_p50_ttft_s", "disagg", "disagg.p50_ttft_s", False),
    ("disagg_hit_rate", "disagg", "disagg.migration_hit_rate", True),
    ("disagg_s_per_chunk", "disagg", "disagg.migration_s_per_chunk", False),
)


def _lookup(campaign: Dict[str, Any], path: str) -> float:
    """Follow a dotted key path into one campaign's summary.

    The profiler's share map lists only the stages it observed, so an
    absent stage there reads as a zero share.
    """
    *parents, leaf = path.split(".")
    for key in parents:
        campaign = campaign[key]
    if parents == ["attribution_share"]:
        return campaign.get(leaf, 0.0)
    return campaign[leaf]


def run_suite(
    suite: str = "standard",
    seed: int = 1,
    clock: Optional[Callable[[], float]] = None,
) -> Dict[str, Any]:
    """Run every campaign of one suite; returns the artifact document.

    ``clock`` is an (optional) wall-clock source injected by the CLI —
    the simulation tree itself never reads wall time. The artifact's
    ``key_metrics`` block is what the comparator gates on; every entry
    is a simulated quantity, deterministic under (suite, seed).
    """
    t0 = clock() if clock is not None else 0.0
    scale = SUITES[suite]
    # The override is process-wide CLI state; restore whatever was
    # there so a suite run never leaks its seed into later code.
    previous_seed = default_seed(None)  # type: ignore[arg-type]
    set_default_seed(seed)
    try:
        campaigns = {name: run(scale, seed) for name, run in CAMPAIGNS.items()}
    finally:
        set_default_seed(previous_seed)

    cc = campaigns["offload-cc"]
    pl = campaigns["offload-pipellm"]
    key_metrics = {
        name: _key(_lookup(campaigns[campaign], path), higher_is_better)
        for name, campaign, path, higher_is_better in KEY_METRICS
    }
    key_metrics["pipellm_speedup_over_cc"] = _key(
        pl["throughput_tok_s"] / cc["throughput_tok_s"]
        if cc["throughput_tok_s"] else 0.0,
        True,
    )

    wall_clock_s = (clock() - t0) if clock is not None else 0.0
    if clock is not None:
        # Tracked, never gated: wall time depends on the machine and
        # the crypto backend, not on any simulated quantity.
        key_metrics["wall_clock_s"] = _key(wall_clock_s, False, level="warn")

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "suite": suite,
        "seed": seed,
        "verdicts": {
            "offload-cc": cc["verdict"],
            "offload-pipellm": pl["verdict"],
        },
        "key_metrics": key_metrics,
        "campaigns": campaigns,
        # Duplicated at top level for humans and older tooling; the
        # warn-level key metric above is what the comparator tracks.
        "wall_clock_s": wall_clock_s,
    }


# -- artifacts on disk ---------------------------------------------------


def artifact_index(path: Path) -> Optional[int]:
    match = _ARTIFACT_RE.match(path.name)
    return int(match.group(1)) if match else None


def find_latest_artifact(directory: Path, below: Optional[int] = None) -> Optional[Path]:
    """Highest-numbered ``BENCH_<n>.json`` (optionally with n < below)."""
    best: Tuple[int, Optional[Path]] = (-1, None)
    for path in directory.glob("BENCH_*.json"):
        index = artifact_index(path)
        if index is None or (below is not None and index >= below):
            continue
        if index > best[0]:
            best = (index, path)
    return best[1]


def next_artifact_path(directory: Path) -> Path:
    latest = find_latest_artifact(directory)
    index = artifact_index(latest) + 1 if latest is not None else 0
    return directory / f"BENCH_{index}.json"


# -- comparator ----------------------------------------------------------


def compare_artifacts(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    tolerance: float = REGRESSION_TOLERANCE,
) -> Dict[str, List[Dict[str, Any]]]:
    """Diff two artifacts' key metrics.

    Returns ``{"regressions": [...], "improvements": [...],
    "unchanged": [...], "warnings": [...]}`` where each entry carries
    the metric name, both values and the relative change (positive =
    candidate higher). A metric regresses when it moved more than
    ``tolerance`` in its bad direction; the verdicts flipping is
    always a regression. Metrics tagged ``level: warn`` in either
    artifact (wall clock) never regress: any beyond-tolerance movement
    lands in ``warnings``, which callers report but do not gate on.
    """
    out: Dict[str, List[Dict[str, Any]]] = {
        "regressions": [], "improvements": [], "unchanged": [],
        "warnings": [],
    }
    base_metrics = baseline.get("key_metrics", {})
    cand_metrics = candidate.get("key_metrics", {})
    for name in sorted(set(base_metrics) & set(cand_metrics)):
        base = base_metrics[name]
        cand = cand_metrics[name]
        higher_is_better = base.get("higher_is_better", True)
        warn_only = "warn" in (base.get("level"), cand.get("level"))
        b, c = base["value"], cand["value"]
        change = (c - b) / abs(b) if b else (0.0 if c == b else float("inf"))
        entry = {
            "metric": name, "baseline": b, "candidate": c,
            "change": change, "higher_is_better": higher_is_better,
        }
        bad = -change if higher_is_better else change
        if warn_only:
            if abs(change) > tolerance:
                out["warnings"].append(entry)
            else:
                out["unchanged"].append(entry)
        elif bad > tolerance:
            out["regressions"].append(entry)
        elif bad < -tolerance:
            out["improvements"].append(entry)
        else:
            out["unchanged"].append(entry)
    for campaign, verdict in baseline.get("verdicts", {}).items():
        cand_verdict = candidate.get("verdicts", {}).get(campaign)
        if cand_verdict is not None and cand_verdict != verdict:
            out["regressions"].append({
                "metric": f"verdict:{campaign}", "baseline": verdict,
                "candidate": cand_verdict, "change": float("nan"),
                "higher_is_better": True,
            })
    return out


def render_comparison(diff: Dict[str, List[Dict[str, Any]]]) -> str:
    lines: List[str] = []
    for bucket, marker in (
        ("regressions", "REGRESSION"), ("warnings", "WARN"),
        ("improvements", "improved"), ("unchanged", "ok"),
    ):
        for entry in diff.get(bucket, []):
            if isinstance(entry["baseline"], str):
                lines.append(
                    f"  {marker:<10} {entry['metric']}: "
                    f"{entry['baseline']} -> {entry['candidate']}"
                )
                continue
            arrow = "+" if entry["change"] >= 0 else ""
            lines.append(
                f"  {marker:<10} {entry['metric']}: "
                f"{entry['baseline']:.6g} -> {entry['candidate']:.6g} "
                f"({arrow}{100 * entry['change']:.2f}%)"
            )
    summary = (
        f"{len(diff['regressions'])} regressions, "
        f"{len(diff['improvements'])} improvements, "
        f"{len(diff['unchanged'])} unchanged"
    )
    warnings = diff.get("warnings", [])
    if warnings:
        summary += f", {len(warnings)} warnings"
    return summary + ("\n" + "\n".join(lines) if lines else "")


def load_artifact(path: Path) -> Dict[str, Any]:
    doc = json.loads(path.read_text())
    version = doc.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: artifact schema v{version}, harness speaks "
            f"v{BENCH_SCHEMA_VERSION}"
        )
    return doc
