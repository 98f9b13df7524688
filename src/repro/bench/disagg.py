"""Disaggregated-serving experiments: the encrypted migration frontier.

Not a paper figure — PipeLLM evaluates one machine — but the question
its §5.1 machinery answers at fleet scale: when prefill and decode
live on *different* attested machines, every KV cache crosses the
CC-serialized bridge between them, and speculative pipelined
encryption is what keeps that migration off the request's critical
path. Four sections, each with its acceptance invariants asserted
inline:

* **frontier** — monolithic CC-serialized vs disaggregated PipeLLM
  across offered load: at high load the split fleet must win TTFT
  (dedicated prefill, no inline-prefill head-of-line blocking) while
  matching goodput;
* **migration** — the per-chunk wire cost under native / cc / pipellm
  at the top rate; speculation must recover ≥ 50 % of the CC
  migration penalty at its achieved hit rate, with zero IV reuse
  across every link (the fleet-wide audit raises on any violation);
* **packs** — the same migration plane under the named hardware
  calibrations (``--hw-pack``): the CC-serialized bridge stays
  expensive across GPU generations while the staged path tracks each
  pack's DMA bandwidth;
* **stress / failover** — a hot-tenant, long-prompt, short-output
  trace that saturates one migration link: the causal-trace verdict
  must flip from *migration-bound* (cc) to compute-bound (pipellm);
  a decode crash mid-migration must complete every admitted request
  via resume (retained prefill copies, no recompute) with ledger
  closure; a mispredict storm must trip the degradation controller
  and still drain clean, consuming bit-identical IV counts.
"""

from __future__ import annotations

from ..cluster.routing import AffinityPolicy
from ..core import DisaggConfig
from ..disagg import DisaggCluster, run_disagg
from ..faults import FaultPlan
from ..hw import pack_names
from ..telemetry import recording
from ..tracing import extract_traces, fleet_attribution
from ..workloads import TraceSpec
from .experiments import _require, _scale
from .tables import ExperimentResult

__all__ = ["STRESS_TRACE", "disagg_config", "disagg_frontier", "mono_config"]

#: Hot-tenant migration-stress shape: long prompts (big KV images),
#: short outputs (little decode to hide behind), one tenant (affinity
#: concentrates every migration onto one link, so the CC-serialized
#: wire saturates while PipeLLM's staged wire does not).
STRESS_TRACE = TraceSpec(
    name="disagg-stress",
    mean_prompt=192.0, sigma_prompt=0.2, max_prompt=256,
    mean_output=4.0, sigma_output=0.3, max_output=8,
)


def mono_config(**overrides) -> DisaggConfig:
    """The monolithic baseline: four CC decode workers prefilling inline."""
    return DisaggConfig(prefill_workers=0, decode_workers=4, system="cc", **overrides)


def disagg_config(system: str, **overrides) -> DisaggConfig:
    """The 1p+3d split fleet under ``system``."""
    return DisaggConfig(prefill_workers=1, decode_workers=3, system=system, **overrides)


def _row(run, section: str, topology: str, rate: float, verdict: str = "") -> dict:
    return dict(
        section=section,
        topology=topology,
        system=run.system,
        rate_rps=rate,
        offered=run.offered,
        completed=run.completed,
        unfinished=run.unfinished,
        goodput_rps=run.goodput,
        p50_ttft_ms=run.p50_ttft * 1e3,
        p99_ttft_ms=run.p99_ttft * 1e3,
        mean_lat_ms=run.mean_latency * 1e3,
        chunks=run.migration_chunks,
        hit_rate=run.migration_hit_rate,
        us_per_chunk=run.migration_s_per_chunk * 1e6,
        resends=run.migration_resends,
        failovers=run.failovers,
        resumes=run.resumes,
        replays=run.replays,
        iv_obs=run.iv_observed,
        verdict=verdict,
    )


def disagg_frontier(scale="quick") -> ExperimentResult:
    """Disaggregated vs monolithic serving over encrypted KV migration."""
    quick = _scale(scale).name == "quick"
    duration = 8.0 if quick else 20.0
    rates = (10.0, 18.0) if quick else (8.0, 16.0, 24.0, 32.0)
    top = rates[-1]
    result = ExperimentResult(
        experiment_id="disagg",
        title="disaggregated prefill/decode with encrypted KV migration (extension)",
        columns=[
            "section", "topology", "system", "rate_rps", "offered",
            "completed", "unfinished", "goodput_rps", "p50_ttft_ms",
            "p99_ttft_ms", "mean_lat_ms", "chunks", "hit_rate",
            "us_per_chunk", "resends", "failovers", "resumes", "replays",
            "iv_obs", "verdict",
        ],
    )

    # -- frontier: mono CC vs disagg PipeLLM across offered load --------
    runs = {}
    for rate in rates:
        for topology, config in (
            ("mono-4", mono_config()),
            ("1p+3d", disagg_config("pipellm")),
        ):
            run = run_disagg(config, rate=rate, duration=duration)
            run.check(f"frontier {topology} rate={rate}")
            runs[(topology, rate)] = run
            result.add_row(**_row(run, "frontier", topology, rate))

    mono = runs[("mono-4", top)]
    pipellm = runs[("1p+3d", top)]
    _require(
        pipellm.p50_ttft < mono.p50_ttft,
        f"disagg PipeLLM p50 TTFT {pipellm.p50_ttft:.4f}s must beat "
        f"monolithic CC {mono.p50_ttft:.4f}s at rate {top}",
    )
    _require(
        pipellm.goodput >= 0.98 * mono.goodput,
        f"disagg PipeLLM goodput {pipellm.goodput:.2f} rps must match "
        f"monolithic CC {mono.goodput:.2f} rps at rate {top}",
    )

    # -- migration: per-chunk wire cost and the recovery fraction -------
    for system in ("native", "cc"):
        run = run_disagg(disagg_config(system), rate=top, duration=duration)
        run.check(f"migration {system}")
        runs[(system, top)] = run
        result.add_row(**_row(run, "migration", "1p+3d", top))
    result.add_row(**_row(pipellm, "migration", "1p+3d", top))

    native, cc = runs[("native", top)], runs[("cc", top)]
    penalty = cc.migration_s_per_chunk - native.migration_s_per_chunk
    recovered = cc.migration_s_per_chunk - pipellm.migration_s_per_chunk
    recovery = recovered / penalty if penalty > 0 else 0.0
    _require(penalty > 0, "CC migration must cost more than native per chunk")
    _require(
        pipellm.migration_hit_rate > 0.5,
        f"speculation hit rate {pipellm.migration_hit_rate:.3f} too low",
    )
    _require(
        recovery >= 0.5,
        f"speculation recovers {recovery:.2f} of the CC migration penalty "
        f"(need >= 0.5 at hit rate {pipellm.migration_hit_rate:.3f})",
    )
    _require(
        cc.iv_observed > 0 and pipellm.iv_observed > 0,
        "encrypted migrations must feed the fleet IV audit",
    )
    _require(native.iv_observed == 0, "native migrations must not consume IVs")
    result.add_note(
        f"speculation recovers {recovery:.1%} of the CC migration penalty "
        f"({cc.migration_s_per_chunk * 1e6:.0f} -> "
        f"{pipellm.migration_s_per_chunk * 1e6:.0f} us/chunk vs "
        f"{native.migration_s_per_chunk * 1e6:.0f} us native) at hit rate "
        f"{pipellm.migration_hit_rate:.3f}; every encrypted run completed "
        "under a live fleet-wide IV audit (zero reuse by construction)"
    )

    # -- packs: the migration plane under named hardware calibrations ---
    pack_chunk = {}
    for pack in pack_names():
        for system in ("cc", "pipellm"):
            config = DisaggConfig(
                prefill_workers=1, decode_workers=2, system=system,
                hw_pack=pack,
            )
            run = run_disagg(config, rate=1.0, duration=4.0, tenants=2)
            run.check(f"pack {pack} {system}")
            pack_chunk[(pack, system)] = run.migration_s_per_chunk
            result.add_row(**_row(run, f"pack:{pack}", "1p+2d", 1.0))
            _require(
                system == "cc" or run.migration_s_per_chunk
                < pack_chunk[(pack, "cc")],
                f"pack {pack}: speculation must beat the serialized bridge",
            )
    result.add_note(
        "packs (cc -> pipellm us/chunk): "
        + ", ".join(
            f"{pack} {pack_chunk[(pack, 'cc')] * 1e6:.0f} -> "
            f"{pack_chunk[(pack, 'pipellm')] * 1e6:.0f}"
            for pack in pack_names()
        )
        + "; the serialized bridge stays expensive across generations "
        "while the staged path tracks each pack's DMA bandwidth"
    )

    # -- stress: one hot link; the verdict must flip under PipeLLM ------
    stress_duration = 6.0 if quick else 8.0
    stress_runs = {}
    for system in ("cc", "pipellm"):
        with recording() as session:
            cluster = DisaggCluster(disagg_config(system))
            run = cluster.run(cluster.workload(
                18.0, stress_duration, tenants=1, trace=STRESS_TRACE
            ))
        run.check(f"stress {system}")
        attribution = fleet_attribution(extract_traces(session.collectors[0]))
        _require(
            not attribution.closure_problems,
            f"stress {system}: causal ledger not closed: "
            f"{attribution.closure_problems[:3]}",
        )
        stress_runs[system] = (cluster, run, attribution)
        result.add_row(**_row(
            run, "stress", "1p+3d", 18.0, verdict=attribution.verdict
        ))
    _require(
        stress_runs["cc"][2].verdict == "migration-bound",
        f"CC-serialized hot-link run must be migration-bound, got "
        f"{stress_runs['cc'][2].verdict!r}",
    )
    _require(
        stress_runs["pipellm"][2].verdict != "migration-bound",
        "PipeLLM must lift the migration-bound verdict",
    )
    result.add_note(
        f"hot-link stress: critical-path migration share "
        f"{stress_runs['cc'][2].share('migration'):.1%} (cc) -> "
        f"{stress_runs['pipellm'][2].share('migration'):.1%} (pipellm); "
        f"verdict {stress_runs['cc'][2].verdict} -> "
        f"{stress_runs['pipellm'][2].verdict}"
    )

    # -- failover: crash mid-migration, then a mispredict storm ---------
    # Crash the decode worker the hot tenant's rendezvous hash targets,
    # while its migrations are in flight on the saturated link.
    target = max(
        range(3), key=lambda i: AffinityPolicy._weight("tenant-0", i)
    )
    crash_config = disagg_config(
        "cc", fail_at=2.0, fail_kind="decode", fail_index=target,
        recover_after=1.5,
    )
    with recording() as session:
        cluster = DisaggCluster(crash_config)
        crash_run = cluster.run(cluster.workload(
            18.0, stress_duration, tenants=1, trace=STRESS_TRACE
        ))
    crash_run.check("failover crash")
    _require(crash_run.shed == 0, "crash run must shed nothing")
    _require(crash_run.crashes >= 1, "crash run must actually crash")
    _require(
        crash_run.failovers >= 1 and crash_run.resumes >= 1,
        f"crash mid-migration must exercise resume "
        f"(failovers={crash_run.failovers}, resumes={crash_run.resumes})",
    )
    attribution = fleet_attribution(extract_traces(session.collectors[0]))
    _require(
        not attribution.closure_problems,
        f"crash run: causal ledger not closed: "
        f"{attribution.closure_problems[:3]}",
    )
    result.add_row(**_row(
        crash_run, "failover", "1p+3d", 18.0, verdict=attribution.verdict
    ))
    result.add_note(
        f"decode crash at t=2.0 (worker d{target}): {crash_run.failovers} "
        f"failovers, {crash_run.resumes} resumed from retained prefill "
        f"copies, {crash_run.replays} replayed, every admitted request "
        "completed with ledger closure"
    )

    # Mispredict storm: degradation must park speculation, the run must
    # drain clean, and IV consumption must be bit-identical to the
    # clean pipellm stress run (drops retransmit ciphertext, never IVs).
    storm_config = disagg_config(
        "pipellm",
        fault_plan=FaultPlan.migration_storm(0.6, stop=stress_duration / 2),
    )
    storm_cluster = DisaggCluster(storm_config)
    storm_run = storm_cluster.run(storm_cluster.workload(
        18.0, stress_duration, tenants=1, trace=STRESS_TRACE
    ))
    storm_run.check("migration storm")
    clean_run = stress_runs["pipellm"][1]
    speculator = storm_cluster.fabric.speculator
    _require(
        speculator.parked > 0,
        "storm must trip the degradation controller (no parked lookups)",
    )
    _require(
        storm_run.migration_hit_rate < clean_run.migration_hit_rate,
        "storm must depress the speculation hit rate",
    )
    _require(storm_run.migration_resends > 0, "storm must drop chunks")
    _require(
        storm_run.iv_observed == clean_run.iv_observed,
        f"storm IV count {storm_run.iv_observed} != clean "
        f"{clean_run.iv_observed}: a drop or miss consumed a fresh IV",
    )
    result.add_row(**_row(storm_run, "storm", "1p+3d", 18.0))
    result.add_note(
        f"migration storm (rate 0.6, first half): hit rate "
        f"{clean_run.migration_hit_rate:.3f} -> "
        f"{storm_run.migration_hit_rate:.3f}, {speculator.parked} lookups "
        f"parked by the degradation controller, "
        f"{storm_run.migration_resends} chunks retransmitted, IV "
        "consumption bit-identical to the clean run"
    )
    return result
