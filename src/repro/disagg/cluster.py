"""Disaggregated fleet orchestration: pools + scheduler + fabric.

:class:`DisaggCluster` is the :class:`~repro.cluster.fleet.Fleet` of
dedicated prefill workers and continuous-batching decode workers,
wired to a :class:`~repro.disagg.migration.MigrationFabric` whose
per-link AES-GCM sessions all chain off one fleet root key, with the
migration-aware :class:`~repro.disagg.scheduler.DisaggScheduler` as
its front door. It folds a run into a :class:`DisaggResult`.

One :class:`~repro.cluster.tenant.ClusterIvAudit` watches every
migration endpoint ever derived — across crashes, re-attestations and
resumed migrations — so a completed run *is* the proof that no IV was
ever reused anywhere on the migration plane.

With ``prefill_workers=0`` the same machinery runs the monolithic
baseline (inline prefill on the decode pool, no migration), which is
what the TTFT/goodput comparisons in :mod:`repro.bench.disagg` are
measured against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..cluster import CLUSTER_TRACE, Fleet, FleetResult
from ..core import DisaggConfig
from ..crypto import hkdf
from ..hw import HardwareParams, default_params
from ..models import KvGeometry, OPT_13B, ModelSpec
from ..sim import default_seed
from ..workloads import Request, TraceSpec
from .migration import MigrationFabric
from .scheduler import DisaggScheduler
from .workers import DecodeWorker, DisaggRequest, PrefillWorker

__all__ = ["DisaggCluster", "DisaggResult", "run_disagg"]


@dataclass
class DisaggResult(FleetResult):
    """Everything one disaggregated run measured (``utilization`` is
    keyed by worker label)."""

    prefill_workers: int
    decode_workers: int
    replays: int
    resumes: int
    #: Migration plane: attempts / completions / chunks delivered /
    #: wire retransmissions / speculation hit rate / encrypted links.
    migrations: int
    migrations_completed: int
    migration_chunks: int
    migration_resends: int
    migration_hit_rate: float
    migration_links: int
    #: Mean wire seconds per delivered migration chunk (the number the
    #: speculation-recovery acceptance math runs on).
    migration_s_per_chunk: float

    KEYS = (
        "prefill_workers", "decode_workers", "system", "duration_s",
        "offered", "completed", "shed", "unfinished", "failovers", "replays",
        "resumes", "crashes", "migrations", "migrations_completed",
        "migration_chunks", "migration_resends", "migration_hit_rate",
        "migration_links", "migration_s_per_chunk", "iv_lanes", "iv_observed",
        "goodput_rps", "mean_ttft_s", "p50_ttft_s", "p99_ttft_s",
        "mean_latency_s", "p99_latency_s", "utilization",
    )

    @property
    def goodput(self) -> float:
        """Completed requests per simulated second (the throughput)."""
        return self.throughput


class DisaggCluster(Fleet):
    """Prefill + decode pools + migration fabric in one simulator."""

    def __init__(
        self,
        config: DisaggConfig,
        spec: ModelSpec = OPT_13B,
        params: Optional[HardwareParams] = None,
    ) -> None:
        super().__init__(config)
        self.spec = spec
        self.params = params or default_params()
        self.geometry = KvGeometry(spec)
        self.prefill_pool = self._spawn(
            PrefillWorker, config.prefill_workers, spec, self.params
        )
        self.decode_pool = self._spawn(
            DecodeWorker, config.decode_workers, spec, self.params
        )
        self.workers = self.machines = [*self.prefill_pool, *self.decode_pool]
        # The fleet root key every migration link chains off. Derived,
        # not random: same seed → same keys → byte-identical replays.
        fleet_key = hkdf(
            default_seed(config.seed).to_bytes(8, "big"),
            salt=b"pipellm-disagg", info=b"fleet-root", length=16,
        )
        self.fabric = MigrationFabric(
            self.sim, fleet_key, self.params, system=config.system,
            audit=self.audit, faults=self.faults,
        )
        self.scheduler = self.front = DisaggScheduler(
            self.sim, self.prefill_pool, self.decode_pool, self.fabric,
            decode_policy=config.decode_policy,
        )

    def _wrap(self, request: Request, tenant: str) -> DisaggRequest:
        # The KV footprint migration will move is fixed here, from the
        # prompt alone — decode-side growth never crosses the wire.
        return DisaggRequest(
            rid=request.request_id,
            tenant=tenant,
            request=request,
            submit_time=request.arrival_time,
            kv_bytes=self.geometry.bytes_for_tokens(request.prompt_len)
            * request.parallel_n,
        )

    def _scripted_target(self) -> PrefillWorker | DecodeWorker:
        pool = self.prefill_pool if self.config.fail_kind == "prefill" else self.decode_pool
        return pool[self.config.fail_index]

    def _result(self, requests: List[DisaggRequest]) -> DisaggResult:
        scheduler = self.scheduler
        stats = self.fabric.stats()
        shipped = stats["chunks_shipped"]
        return DisaggResult(
            **self._ledger(requests),
            prefill_workers=self.config.prefill_workers,
            decode_workers=self.config.decode_workers,
            replays=scheduler.replays,
            resumes=scheduler.resumes,
            migrations=stats["migrations"],
            migrations_completed=stats["completed"],
            migration_chunks=stats["chunks"],
            migration_resends=stats["resends"],
            migration_hit_rate=stats["hit_rate"],
            migration_links=stats["links"],
            migration_s_per_chunk=(
                stats["wire_seconds"] / shipped if shipped else 0.0
            ),
        )


def run_disagg(
    config: DisaggConfig,
    rate: float = 4.0,
    duration: float = 20.0,
    tenants: int = 4,
    spec: ModelSpec = OPT_13B,
    trace: TraceSpec = CLUSTER_TRACE,
    params: Optional[HardwareParams] = None,
) -> DisaggResult:
    """Build a disagg fleet, generate its workload, run it, fold it up."""
    cluster = DisaggCluster(config, spec=spec, params=params)
    return cluster.run(cluster.workload(rate, duration, tenants=tenants, trace=trace))
