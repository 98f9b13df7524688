"""Continuous benchmark harness (``python -m repro bench``).

Every gated number is a projection of a registry experiment: a
:data:`KEY_METRICS` row names an :data:`~repro.bench.EXPERIMENTS` id,
the criteria that pick one row of its table (first match, as
:meth:`~repro.bench.tables.ExperimentResult.find`) and a column.
:func:`run_suite` runs each referenced experiment once, in registry
order, so BENCH gates the scenarios the claims and EXPERIMENTS.md
report, and each experiment's inline acceptance checks run on the way.

The comparator diffs two ``BENCH_<n>.json`` artifacts' key metrics and
reports any that moved past the tolerance (default 5 %) in their bad
direction. Gated metrics are simulated quantities, so two same-seed
runs compare exactly equal. Wall-clock rows (total and per experiment)
are **warn-level**: their movement is reported in ``warnings`` and
never fails the gate.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sim import default_seed
from . import EXPERIMENTS

__all__ = [
    "BENCH_SCHEMA_VERSION", "KEY_METRICS", "VERDICTS", "compare_artifacts",
    "find_latest_artifact", "load_artifact", "next_artifact_path", "project",
    "render_comparison", "run_suite",
]

BENCH_SCHEMA_VERSION = 1

#: Default regression tolerance: relative change beyond which a key
#: metric counts as regressed (in its bad direction).
REGRESSION_TOLERANCE = 0.05

_ARTIFACT_RE = re.compile(r"^BENCH_(\d+)\.json$")

_66B = {"workload": "flexgen/opt-66b"}
_FIG8 = {"model": "opt-30b", "dataset": "sharegpt", "parallel": 6, "rate": 2.0}
_CLUSTER = {"section": "scaling", "replicas": 2}
_SERVE = {"admission": "slo", "rate_rps": 24.0}
_DISAGG = {"section": "migration", "system": "pipellm"}
_CLEAN = {"fault_rate": 0.0, "policy": "adaptive"}
_TP2 = {"mode": "tp", "n_gpus": 2, "system": "PipeLLM"}

#: The gated key metrics: (name, experiment id, row criteria, column,
#: higher_is_better). Each reads one cell of one registry table and is
#: deterministic under (scale, seed). Every criterion matches a row at
#: both scales: fig7's first OPT-66B row is its prompt-32 shape, and
#: disagg's migration section runs at the frontier's top rate.
KEY_METRICS: Tuple[Tuple[str, str, Dict[str, Any], str, bool], ...] = (
    ("micro_cc_32mb_gbps", "fig2", {"size": "32MB", "system": "CC"}, "throughput_gbps", True),
    ("micro_nocc_32mb_gbps", "fig2", {"size": "32MB", "system": "w/o CC"}, "throughput_gbps",
     True),
    ("offload_cc_throughput_tok_s", "fig7", dict(_66B, system="CC"), "throughput_tok_s", True),
    ("offload_pipellm_throughput_tok_s", "fig7", dict(_66B, system="PipeLLM"),
     "throughput_tok_s", True),
    ("fig8_pipellm_norm_latency_s_tok", "fig8", dict(_FIG8, system="PipeLLM"),
     "norm_latency_s_tok", False),
    ("cluster_throughput_rps", "cluster", _CLUSTER, "throughput_rps", True),
    ("cluster_p99_s", "cluster", _CLUSTER, "p99_s", False),
    ("serve_pipellm_goodput_rps", "serve", dict(_SERVE, system="PipeLLM"), "goodput_rps", True),
    ("serve_pipellm_attainment", "serve", dict(_SERVE, system="PipeLLM"), "attainment", True),
    ("serve_pipellm_p99_ttft_s", "serve", dict(_SERVE, system="PipeLLM"), "p99_ttft_s", False),
    ("serve_cc_goodput_rps", "serve", dict(_SERVE, system="CC"), "goodput_rps", True),
    ("disagg_pipellm_goodput_rps", "disagg", _DISAGG, "goodput_rps", True),
    ("disagg_pipellm_p50_ttft_ms", "disagg", _DISAGG, "p50_ttft_ms", False),
    ("disagg_pipellm_hit_rate", "disagg", _DISAGG, "hit_rate", True),
    ("disagg_pipellm_us_per_chunk", "disagg", _DISAGG, "us_per_chunk", False),
    ("pipellm_hit_rate", "faults", _CLEAN, "success_rate", True),
    ("pipellm_p99_wire_ms", "faults", _CLEAN, "p99_wire_ms", False),
    ("faults_storm_throughput_tok_s", "faults", dict(_CLEAN, fault_rate=0.3),
     "throughput_tok_s", True),
    ("parallel_nocc_tok_s", "parallel", dict(_TP2, system="w/o CC"), "throughput_tok_s", True),
    ("parallel_cc_tok_s", "parallel", dict(_TP2, system="CC"), "throughput_tok_s", True),
    ("parallel_pipellm_tok_s", "parallel", _TP2, "throughput_tok_s", True),
    ("parallel_recovery", "parallel", _TP2, "recovery", True),
    ("parallel_hit_rate", "parallel", _TP2, "hit_rate", True),
    ("pipellm_encrypt_pct", "attrib", {"system": "PipeLLM"}, "encrypt_pct", False),
)

#: The gated bottleneck verdicts: (name, experiment id, row criteria,
#: column). A flip is always a regression.
VERDICTS: Tuple[Tuple[str, str, Dict[str, Any], str], ...] = (
    ("offload-cc", "attrib", {"system": "CC"}, "verdict"),
    ("offload-pipellm", "attrib", {"system": "PipeLLM"}, "verdict"),
)


def _key(
    value: float, higher_is_better: bool, level: Optional[str] = None
) -> Dict[str, Any]:
    """One key-metric entry; ``level="warn"`` (emitted only when set)
    marks it non-gating."""
    out: Dict[str, Any] = {
        "value": float(value), "higher_is_better": bool(higher_is_better),
    }
    if level is not None:
        out["level"] = level
    return out


def project(results: Dict[str, Any]) -> Tuple[Dict[str, Any], Dict[str, str]]:
    """The gated key metrics and verdicts of ``results`` (id ->
    :class:`~repro.bench.tables.ExperimentResult`)."""
    key_metrics = {
        name: _key(results[experiment].find(**criteria)[column], higher)
        for name, experiment, criteria, column, higher in KEY_METRICS
    }
    cc = key_metrics["offload_cc_throughput_tok_s"]["value"]
    pipe = key_metrics["offload_pipellm_throughput_tok_s"]["value"]
    key_metrics["pipellm_speedup_over_cc"] = _key(pipe / cc if cc else 0.0, True)
    verdicts = {
        name: results[experiment].find(**criteria)[column]
        for name, experiment, criteria, column in VERDICTS
    }
    return key_metrics, verdicts


def run_suite(
    scale: str = "quick", clock: Optional[Callable[[], float]] = None
) -> Dict[str, Any]:
    """Run every referenced experiment once; returns the artifact.

    The experiments see the caller's seed override (the CLI's
    ``--seed``), which the artifact records. With a ``clock`` (the
    CLI's; the simulation never reads wall time) the total and each
    experiment's wall time become warn-level key metrics.
    """
    wanted = {row[1] for row in KEY_METRICS + VERDICTS}
    tick = clock or (lambda: 0.0)
    results: Dict[str, Any] = {}
    wall: Dict[str, float] = {}
    start = tick()
    for experiment, run in EXPERIMENTS.items():
        if experiment in wanted:
            t0 = tick()
            results[experiment] = run(scale)
            wall[f"wall_clock_s.{experiment}"] = tick() - t0
    wall["wall_clock_s"] = tick() - start

    key_metrics, verdicts = project(results)
    if clock is not None:
        for name, seconds in wall.items():
            key_metrics[name] = _key(seconds, False, level="warn")
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "scale": scale,
        "seed": default_seed(None),  # type: ignore[arg-type]
        "verdicts": verdicts,
        "key_metrics": key_metrics,
        "experiments": {name: result.to_dict() for name, result in results.items()},
    }


# -- artifacts on disk ---------------------------------------------------


def artifact_index(path: Path) -> Optional[int]:
    match = _ARTIFACT_RE.match(path.name)
    return int(match.group(1)) if match else None


def find_latest_artifact(directory: Path, below: Optional[int] = None) -> Optional[Path]:
    """Highest-numbered ``BENCH_<n>.json`` (optionally with n < below)."""
    found = [(artifact_index(path), path) for path in directory.glob("BENCH_*.json")]
    found = [(i, p) for i, p in found if i is not None and (below is None or i < below)]
    return max(found)[1] if found else None


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
            bucket = "warnings" if abs(change) > tolerance else "unchanged"
        elif abs(bad) > tolerance:
            bucket = "regressions" if bad > 0 else "improvements"
        else:
            bucket = "unchanged"
        out[bucket].append(entry)
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
