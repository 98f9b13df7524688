"""Cluster experiments: scaling, load-latency and routing policies.

Not a paper figure — PipeLLM evaluates one machine — but the natural
deployment question the paper leaves open: what happens when N
confidential replicas serve a multi-tenant stream behind a gateway?
The experiment sweeps three axes with the same harness the figure
experiments use:

* **throughput vs replicas** at a per-replica-proportional offered
  load (does the encrypted fleet scale linearly?);
* **p50/p99 latency vs offered load** at a fixed fleet size (where
  does the admission queue start to bite?);
* **routing policies** head to head, plus a crash/recover run that
  must finish with zero GCM tag failures.

Every run's ledger must close (``FleetResult.check``): every offered
request completed or shed, none unfinished, no GCM tag failure.
"""

from __future__ import annotations

from ..cluster import run_cluster
from ..core import ClusterConfig
from ..sim import mean
from .experiments import get_scale
from .tables import ExperimentResult

__all__ = ["cluster_scaling"]


def _row(result, section: str, rate: float) -> dict:
    util = mean(list(result.utilization.values()))
    return dict(
        section=section,
        replicas=result.replicas,
        policy=result.policy,
        rate_rps=rate,
        offered=result.offered,
        completed=result.completed,
        shed=result.shed,
        throughput_rps=result.throughput,
        p50_s=result.p50_latency,
        p99_s=result.p99_latency,
        util=util,
        failovers=result.failovers,
        auth_fail=result.auth_failures,
    )


def cluster_scaling(scale="quick") -> ExperimentResult:
    """Cluster: throughput vs replicas, latency vs load, policy battle."""
    quick = get_scale(scale).name == "quick"
    duration = 8.0 if quick else 30.0
    result = ExperimentResult(
        experiment_id="cluster",
        title="multi-replica confidential serving (extension)",
        columns=[
            "section", "replicas", "policy", "rate_rps", "offered",
            "completed", "shed", "throughput_rps", "p50_s", "p99_s",
            "util", "failovers", "auth_fail",
        ],
    )

    # Throughput vs fleet size at proportional offered load.
    for replicas in (1, 2, 4) if quick else (1, 2, 4, 8):
        rate = 2.5 * replicas
        config = ClusterConfig(replicas=replicas, policy="least-loaded")
        run = run_cluster(config, rate=rate, duration=duration)
        run.check(f"scaling replicas={replicas}")
        result.add_row(**_row(run, "scaling", rate))

    # Latency vs offered load at a fixed fleet of two replicas.
    for rate in ((2.0, 6.0, 10.0) if quick else (2.0, 4.0, 8.0, 12.0, 16.0)):
        config = ClusterConfig(replicas=2, policy="least-loaded")
        run = run_cluster(config, rate=rate, duration=duration)
        run.check(f"load rate={rate}")
        result.add_row(**_row(run, "load", rate))

    # Routing policies head to head on the same three-replica fleet.
    for policy in ("round-robin", "least-loaded", "affinity"):
        config = ClusterConfig(replicas=3, policy=policy)
        run = run_cluster(config, rate=6.0, duration=duration)
        run.check(f"policy {policy}")
        result.add_row(**_row(run, "policy", 6.0))

    # Crash/recover under load: the run must drain with clean crypto.
    config = ClusterConfig(
        replicas=2, policy="least-loaded",
        fail_at=duration / 4, fail_replica=0, recover_after=duration / 4,
    )
    run = run_cluster(config, rate=6.0, duration=duration)
    run.check("failover")
    result.add_row(**_row(run, "failover", 6.0))
    result.add_note(
        f"failover run: {run.crashes} crash, {run.failovers} failovers, "
        f"{run.auth_failures} auth failures, {run.iv_observed} IVs audited "
        f"over {run.iv_lanes} (key, stream) lanes"
    )
    result.add_note(
        "affinity policy prefix-hit advantage: see `repro cluster --policy affinity`"
    )
    return result
