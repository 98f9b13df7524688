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

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cluster import CLUSTER_TRACE, Fleet
from ..core import DisaggConfig
from ..crypto import hkdf
from ..hw import HardwareParams, get_params
from ..models import KvGeometry, OPT_13B, ModelSpec
from ..sim import default_seed, mean, percentile
from ..workloads import Request, TraceSpec
from .migration import MigrationFabric
from .scheduler import DisaggScheduler
from .workers import DecodeWorker, DisaggRequest, PrefillWorker

__all__ = ["DisaggCluster", "DisaggResult", "run_disagg"]


@dataclass
class DisaggResult:
    """Everything one disaggregated run measured."""

    prefill_workers: int
    decode_workers: int
    system: str
    duration: float
    offered: int
    completed: int
    shed: int
    unfinished: int
    failovers: int
    replays: int
    resumes: int
    crashes: int
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
    #: Distinct (key, stream) IV lanes audited / total IVs observed.
    iv_lanes: int
    iv_observed: int
    #: Time-to-first-token per completed request (seconds).
    ttfts: List[float] = field(default_factory=list)
    #: End-to-end latencies of completed requests (seconds).
    latencies: List[float] = field(default_factory=list)
    #: worker label -> GPU-busy fraction of the run.
    utilization: Dict[str, float] = field(default_factory=dict)

    @property
    def goodput(self) -> float:
        """Completed requests per simulated second."""
        return self.completed / self.duration if self.duration > 0 else 0.0

    @property
    def p50_ttft(self) -> float:
        return percentile(self.ttfts, 50)

    @property
    def p99_ttft(self) -> float:
        return percentile(self.ttfts, 99)

    @property
    def mean_ttft(self) -> float:
        return mean(self.ttfts)

    @property
    def mean_latency(self) -> float:
        return mean(self.latencies)

    @property
    def p99_latency(self) -> float:
        return percentile(self.latencies, 99)

    def as_dict(self) -> Dict[str, object]:
        return {
            "prefill_workers": self.prefill_workers,
            "decode_workers": self.decode_workers,
            "system": self.system,
            "duration_s": self.duration,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "unfinished": self.unfinished,
            "failovers": self.failovers,
            "replays": self.replays,
            "resumes": self.resumes,
            "crashes": self.crashes,
            "migrations": self.migrations,
            "migrations_completed": self.migrations_completed,
            "migration_chunks": self.migration_chunks,
            "migration_resends": self.migration_resends,
            "migration_hit_rate": self.migration_hit_rate,
            "migration_links": self.migration_links,
            "migration_s_per_chunk": self.migration_s_per_chunk,
            "iv_lanes": self.iv_lanes,
            "iv_observed": self.iv_observed,
            "goodput_rps": self.goodput,
            "mean_ttft_s": self.mean_ttft,
            "p50_ttft_s": self.p50_ttft,
            "p99_ttft_s": self.p99_ttft,
            "mean_latency_s": self.mean_latency,
            "p99_latency_s": self.p99_latency,
            "utilization": dict(self.utilization),
        }


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
        self.params = params or get_params(config.hw_pack or "h100-cc")
        self.geometry = KvGeometry(spec, block_size=config.block_size)
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
        completed = scheduler.completed
        duration, unfinished = self._settled(requests)
        stats = self.fabric.stats()
        chunks = stats["chunks"]
        shipped = stats["chunks_shipped"]
        return DisaggResult(
            prefill_workers=self.config.prefill_workers,
            decode_workers=self.config.decode_workers,
            system=self.config.system,
            duration=duration,
            offered=len(requests),
            completed=len(completed),
            shed=len(scheduler.shed),
            unfinished=unfinished,
            failovers=scheduler.failovers,
            replays=scheduler.replays,
            resumes=scheduler.resumes,
            crashes=sum(w.crashes for w in self.workers),
            migrations=stats["migrations"],
            migrations_completed=stats["completed"],
            migration_chunks=chunks,
            migration_resends=stats["resends"],
            migration_hit_rate=stats["hit_rate"],
            migration_links=stats["links"],
            migration_s_per_chunk=(
                stats["wire_seconds"] / shipped if shipped else 0.0
            ),
            iv_lanes=self.audit.keys_seen(),
            iv_observed=self.audit.observed,
            ttfts=[c.ttft for c in completed if not math.isnan(c.ttft)],
            latencies=[c.latency for c in completed if not math.isnan(c.latency)],
            utilization={
                w.label: (w.busy_seconds / duration if duration > 0 else 0.0)
                for w in self.workers
            },
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
