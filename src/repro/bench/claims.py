"""The paper's claims as executable checks: the one paper-fidelity gate.

Each :class:`Claim` names a quantitative statement from the paper (or
from one of the documented ablations and extensions), the id of the
experiment in :data:`repro.bench.EXPERIMENTS` that reproduces it, and a
checker over the experiment's rows.
``verify_claims()`` runs each referenced experiment once and reports,
per claim, every compared quantity next to its bound — the
reproduction's scorecard, runnable as ``python -m repro claims`` and
asserted case by case by ``benchmarks/test_claims.py``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

from . import EXPERIMENTS
from .tables import ExperimentResult

__all__ = ["Claim", "ClaimOutcome", "CLAIMS", "verify_claims"]


@dataclass(frozen=True)
class Claim:
    """One checkable statement from the paper."""

    claim_id: str
    statement: str          # The paper's words (condensed).
    paper_value: str        # What the paper measured.
    experiment: str         # Id of the experiment that reproduces it.
    check: Callable[[ExperimentResult], Tuple[bool, str]]


@dataclass(frozen=True)
class ClaimOutcome:
    claim: Claim
    passed: bool
    measured: str

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable form (``repro claims --json``)."""
        return {
            "claim_id": self.claim.claim_id,
            "statement": self.claim.statement,
            "paper_value": self.claim.paper_value,
            "measured": self.measured,
            "passed": self.passed,
        }


# -- terms: one compared quantity, printed next to its bound ------------------

Term = Tuple[bool, str]

_OPS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq,
}


def _term(ok: bool, subject: str, relation: str) -> Term:
    return ok, f"{subject} {relation}" if ok else f"{subject} NOT {relation}"


def _cmp(label: str, value, op: str, bound, fmt: str = ".1f", of: str = "") -> Term:
    """``value op bound``; a measured bound is named by ``of``."""
    rhs = f"{of} {bound:{fmt}}" if of else f"{bound:g}"
    return _term(_OPS[op](value, bound), f"{label} {value:{fmt}}", f"{op} {rhs}")


def _between(label: str, values: Iterable[float], lo: float, hi: float) -> Term:
    """Every value strictly inside ``(lo, hi)``."""
    values = list(values)
    low, high = min(values), max(values)
    return _term(lo < low and high < hi, f"{label} {low:.1f}..{high:.1f}", f"in ({lo:g}, {hi:g})")


def _monotone(label: str, values: List[float], descending: bool = False) -> Term:
    return _term(
        values == sorted(values, reverse=descending),
        f"{label} " + ", ".join(f"{v:.0f}" for v in values),
        "non-increasing" if descending else "non-decreasing",
    )


def _all(*terms: Term) -> Tuple[bool, str]:
    """A claim holds when every term does; its measured line lists them all."""
    return all(ok for ok, _ in terms), "; ".join(text for _, text in terms)


def _by_system(result: ExperimentResult) -> Dict[str, Dict]:
    return {row["system"]: row for row in result.rows}


# -- checkers -----------------------------------------------------------------

#: Fig. 2's table: (system, size) -> (latency_us, throughput_gbps or None).
PAPER_FIG2 = {
    ("w/o CC", "32B"): (1.43, None),
    ("w/o CC", "128KB"): (1.17, 27.16),
    ("w/o CC", "1MB"): (1.19, 48.2),
    ("w/o CC", "32MB"): (1.43, 55.31),
    ("CC", "32B"): (14.93, None),
    ("CC", "128KB"): (22.809, 3.32),
    ("CC", "1MB"): (162.5, 5.82),
    ("CC", "32MB"): (5252.1, 5.83),
}


def _check_fig2_collapse(result: ExperimentResult):
    ncc = result.find(size="32MB", system="w/o CC")["throughput_gbps"]
    cc = result.find(size="32MB", system="CC")["throughput_gbps"]
    ratio = ncc / cc
    return _term(6 < ratio < 14, f"{ncc:.1f} vs {cc:.1f} GB/s at 32 MB, ratio {ratio:.1f}",
                 "in (6, 14)")


def _check_fig2_calibration(result: ExperimentResult):
    errors: Dict[str, List[Tuple[float, str]]] = {"latency_us": [], "throughput_gbps": []}
    for (system, size), paper in PAPER_FIG2.items():
        row = result.find(size=size, system=system)
        for column, value in zip(errors, paper):
            if value is not None:
                errors[column].append((abs(row[column] / value - 1), f"{system} {size}"))
    (lat, lat_cell), (tput, tput_cell) = max(errors["latency_us"]), max(errors["throughput_gbps"])
    return _all(
        _cmp(f"worst latency error ({lat_cell})", lat, "<=", 0.35, ".3f"),
        _cmp(f"worst throughput error ({tput_cell})", tput, "<=", 0.2, ".3f"),
    )


def _check_fig3a_drop(result: ExperimentResult):
    drops = [row["drop_pct"] for row in result.select(system="CC")]
    return _all(
        _between("CC drops %", drops, 75, 95),
        _cmp("max drop off 88.2 % by", abs(max(drops) - 88.2), "<=", 4.0),
    )


def _check_fig3b_divergence(result: ExperimentResult):
    rates = sorted({row["rate"] for row in result.rows})
    low, high = rates[0], rates[-1]

    def latency(rate, system):
        return result.find(rate=rate, system=system)["norm_latency_s_tok"]

    parity = abs(latency(low, "CC") / latency(low, "w/o CC") - 1)
    return _all(
        _cmp(f"|CC / w/o CC - 1| at {low:g} rps", parity, "<=", 0.05, ".3f"),
        _cmp(f"CC / w/o CC at {high:g} rps", latency(high, "CC") / latency(high, "w/o CC"),
             ">", 1.3, ".2f"),
        _cmp(f"CC swap-ins at {high:g} rps", result.find(rate=high, system="CC")["swap_ins"],
             ">", 0, ".0f"),
    )


def _check_fig3c_drops(result: ExperimentResult):
    d30 = result.find(model="opt-30b", system="CC")["drop_pct"]
    d13 = result.find(model="opt-13b", system="CC")["drop_pct"]
    return _all(
        _cmp("OPT-30B drop off 36.2 % by", abs(d30 - 36.2), "<", 8),
        _cmp("OPT-13B drop off 14.0 % by", abs(d13 - 14.0), "<", 6),
        _cmp("OPT-13B drop %", d13, "<", d30, of="OPT-30B"),
    )


def _check_fig7_cc(result: ExperimentResult):
    overheads = [
        row["overhead_pct"] for row in result.select(system="CC")
        if row["workload"].startswith("flexgen")
    ]
    return _between("FlexGen CC overheads %", overheads, 70, 95)


def _check_fig7_bound(result: ExperimentResult):
    overheads = [row["overhead_pct"] for row in result.select(system="PipeLLM")]
    return _cmp("max PipeLLM overhead %", max(overheads), "<", 19.6)


def _check_fig7_dominance(result: ExperimentResult):
    speedups = [
        row["throughput_tok_s"] / result.find(
            workload=row["workload"], config=row["config"], system="CC",
        )["throughput_tok_s"]
        for row in result.select(system="PipeLLM")
    ]
    return _cmp(f"min PipeLLM/CC throughput over {len(speedups)} configs",
                min(speedups), ">", 1, ".2f")


def _check_fig8_ordering(result: ExperimentResult):
    violations = 0
    pressured = 0
    for row in result.select(system="CC"):
        if row["overhead_pct"] < 10:
            continue
        pressured += 1
        pipe = result.find(
            model=row["model"], dataset=row["dataset"],
            parallel=row["parallel"], rate=row["rate"], system="PipeLLM",
        )
        if pipe["norm_latency_s_tok"] >= row["norm_latency_s_tok"]:
            violations += 1
    return _all(
        _cmp("pressured points", pressured, ">", 0, ".0f"),
        _cmp("ordering violations", violations, "==", 0, ".0f"),
    )


def _check_fig8_success(result: ExperimentResult):
    rates = [
        row["success_rate"]
        for row in result.select(system="PipeLLM")
        if isinstance(row["success_rate"], float) and row["overhead_pct"] > 10
    ]
    if not rates:
        return False, "no pressured points"
    return _cmp("min success rate", min(rates), ">", 0.85, ".3f")


def _check_fig8_parallel(result: ExperimentResult):
    return _all(*(
        _cmp(f"n={n} max CC overhead %", max(
            row["overhead_pct"] for row in result.select(
                model="opt-30b", dataset="sharegpt", parallel=n, system="CC")
        ), ">", 30)
        for n in (2, 4, 6)
    ))


def _check_fig8_tail(result: ExperimentResult):
    ratio = min(row["p90_latency_s_tok"] / row["norm_latency_s_tok"] for row in result.rows)
    return _cmp(f"min p90/mean over {len(result.rows)} rows", ratio, ">=", 0.99, ".3f")


def _check_fig9_pipelining(result: ExperimentResult):
    rows = _by_system(result)
    lat = {name: row["norm_latency_s_tok"] for name, row in rows.items()}
    return _all(
        _cmp("PipeLLM s/tok", lat["PipeLLM"], "<", lat["CC-4t"], ".3f", of="CC-4t"),
        _cmp("CC-4t s/tok", lat["CC-4t"], "<", lat["CC"], ".3f", of="CC"),
        _cmp("w/o CC s/tok", lat["w/o CC"], "<=", lat["PipeLLM"], ".3f", of="PipeLLM"),
        _cmp("PipeLLM threads", rows["PipeLLM"]["crypto_threads"], "==", 2, ".0f"),
        _cmp("CC-4t threads", rows["CC-4t"]["crypto_threads"], "==", 8, ".0f"),
    )


def _check_fig10_penalty(result: ExperimentResult):
    rows = _by_system(result)
    zero = rows["PipeLLM-0"]
    return _all(
        _cmp("PipeLLM-0 penalty %", zero["vs_pipellm_pct"], "<", 15),
        _cmp("PipeLLM-0 s/tok", zero["norm_latency_s_tok"], "<",
             rows["CC"]["norm_latency_s_tok"], ".3f", of="CC"),
        _cmp("PipeLLM-0 NOPs", zero["nops"], ">=", 1, ".0f"),
    )


def _check_enc_threads(result: ExperimentResult):
    tput = result.column("throughput_tok_s")
    return _all(
        _monotone("tok/s by thread count", tput),
        _cmp("most/fewest-thread tok/s", tput[-1] / tput[0], ">", 4, ".2f"),
        _cmp("1-thread overhead %", result.find(enc_threads=1)["overhead_pct"], ">", 80),
    )


def _check_async_decrypt(result: ExperimentResult):
    on = result.find(system="PipeLLM")
    off = result.find(system="PipeLLM-syncdec")
    return _all(
        _cmp("async s/tok", on["norm_latency_s_tok"], "<",
             off["norm_latency_s_tok"], ".3f", of="sync"),
        _cmp("async decrypts with async on", on["async_decrypts"], ">", 0, ".0f"),
        _cmp("async decrypts with async off", off["async_decrypts"], "==", 0, ".0f"),
    )


def _check_leeway(result: ExperimentResult):
    adaptive = result.find(policy="adaptive")
    best_fixed = min(
        row["norm_latency_s_tok"] for row in result.rows if row["policy"] != "adaptive"
    )
    return _all(
        _cmp("adaptive / best fixed s/tok", adaptive["norm_latency_s_tok"] / best_fixed,
             "<=", 1.05, ".3f"),
        _cmp("adaptive success rate", adaptive["success_rate"], ">=", 0.85, ".3f"),
    )


def _check_kv_depth(result: ExperimentResult):
    shallow = result.find(kv_depth=1)
    deep = result.find(kv_depth=8)
    return _all(
        _cmp("min success rate", min(result.column("success_rate")), ">", 0.9, ".3f"),
        _cmp("depth-1 IV skips", shallow["iv_skipped"], "<=", deep["iv_skipped"],
             ".0f", of="depth-8"),
        _cmp("depth-1 evictions", shallow["evicted"], ">=", deep["evicted"],
             ".0f", of="depth-8"),
    )


def _check_teeio(result: ExperimentResult):
    pipe = result.find(system="PipeLLM")["throughput_tok_s"]
    teeio = {row["tenants"]: row["throughput_tok_s"] for row in result.select(system="TEE-I/O")}
    return _all(
        _cmp("|1-tenant TEE-I/O / PipeLLM - 1|", abs(teeio[1] - pipe) / pipe, "<", 0.15, ".3f"),
        _cmp("8-tenant TEE-I/O / PipeLLM", teeio[8] / pipe, "<", 0.25, ".3f"),
        _monotone("TEE-I/O tok/s by tenants", list(teeio.values()), descending=True),
    )


def _check_layerwise(result: ExperimentResult):
    rows = _by_system(result)
    base, cc, pipe = (rows[name]["throughput_tok_s"] for name in ("w/o CC", "CC", "PipeLLM"))
    return _all(
        _cmp("w/o CC streamed layers", rows["w/o CC"]["streamed_layers"], ">", 0, ".0f"),
        _cmp("CC drop", 1 - cc / base, ">", 0.85, ".3f"),
        _cmp("CC tok/s", cc, "<", pipe, ".0f", of="PipeLLM"),
        _cmp("PipeLLM tok/s", pipe, "<", base, ".0f", of="w/o CC"),
    )


CLAIMS: List[Claim] = [
    Claim(
        "cc-io-collapse",
        "CC-enabled H2D throughput is ~an order of magnitude below native",
        "55.31 vs 5.83 GB/s at 32 MB (Fig. 2)",
        "fig2",
        _check_fig2_collapse,
    ),
    Claim(
        "micro-calibration",
        "Every Fig. 2 latency and throughput cell matches the paper's table",
        "w/o CC 1.17–1.43 µs, 27.16–55.31 GB/s; CC 14.93–5252.1 µs, 3.32–5.83 GB/s (Fig. 2)",
        "fig2",
        _check_fig2_calibration,
    ),
    Claim(
        "flexgen-drop",
        "CC drops FlexGen OPT-66B serving throughput catastrophically",
        "82.8–88.2 % (Fig. 3a)",
        "fig3a",
        _check_fig3a_drop,
    ),
    Claim(
        "vllm-swap-divergence",
        "CC matches w/o CC without memory pressure and diverges once KV swapping starts",
        "latency diverges with request rate (Fig. 3b)",
        "fig3b",
        _check_fig3b_divergence,
    ),
    Claim(
        "peft-drop",
        "CC drops fine-tuning throughput, worse for larger models",
        "36.2 % (OPT-30B), 14.0 % (OPT-13B) (Fig. 3c)",
        "fig3c",
        _check_fig3c_drops,
    ),
    Claim(
        "offload-cc-overhead",
        "CC costs FlexGen most of its throughput across models and shapes",
        "82.8–88.2 % (Fig. 7)",
        "fig7",
        _check_fig7_cc,
    ),
    Claim(
        "pipellm-offload-bound",
        "PipeLLM keeps model-offloading overhead below 19.6 %",
        "<19.6 % across 13B–175B (abstract, Fig. 7)",
        "fig7",
        _check_fig7_bound,
    ),
    Claim(
        "pipellm-beats-cc-offload",
        "PipeLLM outperforms CC in every offloading configuration",
        "every FlexGen and PEFT bar (Fig. 7)",
        "fig7",
        _check_fig7_dominance,
    ),
    Claim(
        "pipellm-kv-ordering",
        "Under KV-swap pressure PipeLLM always beats CC",
        "5.2–14.2 % vs 33.3–52.8 % overhead (Fig. 8)",
        "fig8",
        _check_fig8_ordering,
    ),
    Claim(
        "prediction-success",
        "Prediction success stays near 100 % on vLLM (LIFO policy)",
        "near 100 % (§7.2)",
        "fig8",
        _check_fig8_success,
    ),
    Claim(
        "kv-parallel-divergence",
        "CC diverges under load at every parallel-sampling width",
        "parallel 2 / 4 / 6 on OPT-30B ShareGPT (Fig. 8)",
        "fig8",
        _check_fig8_parallel,
    ),
    Claim(
        "kv-p90-tail",
        "p90 latencies are reported and sit at or above the means",
        "normalized latency per request (Fig. 8)",
        "fig8",
        _check_fig8_tail,
    ),
    Claim(
        "pipelining-beats-threads",
        "PipeLLM with 2 threads outperforms non-pipelined CC with 4",
        "Fig. 9",
        "fig9",
        _check_fig9_pipelining,
    ),
    Claim(
        "misprediction-cheap",
        "Zero sequence-prediction success costs only a few percent",
        "8.3 % drop for PipeLLM-0 (Fig. 10)",
        "fig10",
        _check_fig10_penalty,
    ),
    Claim(
        "enc-threads-knee",
        "Offloading needs several AES threads: one is no better than CC",
        "ablation of the §7.2 thread count",
        "abl-threads",
        _check_enc_threads,
    ),
    Claim(
        "async-decrypt-helps",
        "Taking decryption off the critical path lowers latency",
        "ablation of §5.4",
        "abl-asyncdec",
        _check_async_decrypt,
    ),
    Claim(
        "adaptive-leeway",
        "The adaptive IV-leeway controller matches the best fixed leeway",
        "ablation of the IV leeway (DESIGN.md)",
        "abl-leeway",
        _check_leeway,
    ),
    Claim(
        "kv-depth-tradeoff",
        "Deeper KV staging windows trade evictions for IV skips",
        "ablation of the KV staging window (DESIGN.md)",
        "abl-kvdepth",
        _check_kv_depth,
    ),
    Claim(
        "teeio-sharing",
        "Shared TEE-I/O hardware matches PipeLLM alone but collapses across 8 GPUs",
        "8 GPUs per two-socket server (§8.3)",
        "ext-teeio",
        _check_teeio,
    ),
    Claim(
        "layerwise-fifo",
        "Layer-wise (FIFO) KV swapping collapses under CC and PipeLLM recovers it",
        "Fig. 5's FIFO pattern",
        "ext-layerwise",
        _check_layerwise,
    ),
]


def verify_claims(scale="quick") -> List[ClaimOutcome]:
    """Run every claim's experiment (each id once) and evaluate."""
    cache: Dict[str, ExperimentResult] = {}
    outcomes: List[ClaimOutcome] = []
    for claim in CLAIMS:
        if claim.experiment not in cache:
            cache[claim.experiment] = EXPERIMENTS[claim.experiment](scale)
        passed, measured = claim.check(cache[claim.experiment])
        outcomes.append(ClaimOutcome(claim, passed, measured))
    return outcomes


def render_outcomes(outcomes: List[ClaimOutcome]) -> str:
    lines = []
    for outcome in outcomes:
        mark = "PASS" if outcome.passed else "FAIL"
        lines.append(f"[{mark}] {outcome.claim.claim_id}: {outcome.claim.statement}")
        lines.append(f"       paper:    {outcome.claim.paper_value}")
        lines.append(f"       measured: {outcome.measured}")
    passed = sum(1 for o in outcomes if o.passed)
    lines.append(f"{passed}/{len(outcomes)} claims reproduced")
    return "\n".join(lines)
