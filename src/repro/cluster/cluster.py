"""Cluster orchestration: replicas behind one gateway.

:class:`Cluster` is the :class:`~repro.cluster.fleet.Fleet` of N
attested CVM+GPU replicas (:class:`Replica`) behind one
:class:`Gateway`; it folds a run into a :class:`ClusterResult`.

The crypto story is end to end: every tenant request is encrypted on
its per-tenant session at the gateway and decrypted by the replica
(and the response the other way), while *inside* each replica all KV
and token traffic rides the machine's own CVM↔GPU channel. A single
:class:`~repro.cluster.tenant.ClusterIvAudit` watches every tenant
session ever created — across crashes and re-handshakes — so a run
proves its own IV discipline.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core import ClusterConfig
from ..hw import HardwareParams
from ..models import OPT_13B, ModelSpec
from ..sim import mean, percentile
from ..workloads import Request, TraceSpec
from .fleet import CLUSTER_TRACE, Fleet
from .gateway import Gateway
from .replica import ClusterRequest, Replica

__all__ = ["CLUSTER_TRACE", "Cluster", "ClusterResult", "run_cluster"]


@dataclass
class ClusterResult:
    """Everything one cluster run measured."""

    replicas: int
    policy: str
    system: str
    duration: float
    offered: int
    completed: int
    shed: int
    unfinished: int
    failovers: int
    handshakes: int
    crashes: int
    prefix_hits: int
    swap_outs: int
    #: GCM tag-validation failures across every machine incarnation
    #: (must be 0 — the acceptance invariant).
    auth_failures: int
    #: Distinct (key, stream) IV lanes the audit tracked / total IVs.
    iv_lanes: int
    iv_observed: int
    #: End-to-end gateway latencies of completed requests (seconds).
    latencies: List[float] = field(default_factory=list)
    queue_depth_mean: float = 0.0
    #: replica id -> GPU-busy fraction of the run.
    utilization: Dict[int, float] = field(default_factory=dict)
    #: tenant -> fraction of its completed requests inside the SLO.
    slo_attainment: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Completed requests per simulated second."""
        return self.completed / self.duration if self.duration > 0 else 0.0

    @property
    def p50_latency(self) -> float:
        return percentile(self.latencies, 50)

    @property
    def p99_latency(self) -> float:
        return percentile(self.latencies, 99)

    @property
    def mean_latency(self) -> float:
        return mean(self.latencies)

    def as_dict(self) -> Dict[str, object]:
        return {
            "replicas": self.replicas,
            "policy": self.policy,
            "system": self.system,
            "duration_s": self.duration,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "unfinished": self.unfinished,
            "failovers": self.failovers,
            "handshakes": self.handshakes,
            "crashes": self.crashes,
            "prefix_hits": self.prefix_hits,
            "swap_outs": self.swap_outs,
            "auth_failures": self.auth_failures,
            "iv_lanes": self.iv_lanes,
            "iv_observed": self.iv_observed,
            "throughput_rps": self.throughput,
            "mean_latency_s": self.mean_latency,
            "p50_latency_s": self.p50_latency,
            "p99_latency_s": self.p99_latency,
            "queue_depth_mean": self.queue_depth_mean,
            "utilization": dict(self.utilization),
            "slo_attainment": dict(self.slo_attainment),
        }


class Cluster(Fleet):
    """N confidential replicas + gateway in one shared simulator."""

    def __init__(
        self,
        config: ClusterConfig,
        spec: ModelSpec = OPT_13B,
        params: Optional[HardwareParams] = None,
    ) -> None:
        super().__init__(config)
        self.spec = spec
        self.replicas = self.machines = self._spawn(
            Replica, config.replicas, spec, params
        )
        self.gateway = self.front = Gateway(
            self.sim, config, self.replicas, audit=self.audit
        )

    def _wrap(self, request: Request, tenant: str) -> ClusterRequest:
        payload = hashlib.sha256(
            f"{tenant}:req{request.request_id}".encode()
        ).digest()[:16]
        return ClusterRequest(
            rid=request.request_id,
            tenant=tenant,
            request=request,
            submit_time=request.arrival_time,
            payload=payload,
        )

    def _scripted_target(self) -> Replica:
        return self.replicas[self.config.fail_replica]

    def _result(self, requests: List[ClusterRequest]) -> ClusterResult:
        gateway = self.gateway
        completed = gateway.completed
        duration, unfinished = self._settled(requests)
        depth = gateway.metrics.timeseries("cluster.gateway.queue_depth")
        utilization = {
            r.replica_id: (r.busy_seconds / duration if duration > 0 else 0.0)
            for r in self.replicas
        }
        return ClusterResult(
            replicas=self.config.replicas,
            policy=self.config.policy,
            system=self.config.system,
            duration=duration,
            offered=len(requests),
            completed=len(completed),
            shed=len(gateway.shed),
            unfinished=unfinished,
            failovers=gateway.failovers,
            handshakes=gateway.handshakes,
            crashes=sum(r.crashes for r in self.replicas),
            prefix_hits=sum(r.prefix_hits for r in self.replicas),
            swap_outs=sum(r.swap_out_count for r in self.replicas),
            auth_failures=sum(r.auth_failures for r in self.replicas),
            iv_lanes=self.audit.keys_seen(),
            iv_observed=self.audit.observed,
            latencies=[
                c.latency for c in completed if not math.isnan(c.latency)
            ],
            queue_depth_mean=depth.time_weighted_mean(horizon=duration),
            utilization=utilization,
            slo_attainment=gateway.slo_attainment(),
        )


def run_cluster(
    config: ClusterConfig,
    rate: float = 2.0,
    duration: float = 30.0,
    tenants: int = 4,
    spec: ModelSpec = OPT_13B,
    trace: TraceSpec = CLUSTER_TRACE,
    params: Optional[HardwareParams] = None,
) -> ClusterResult:
    """Build a cluster, generate its workload, run it, summarize it."""
    cluster = Cluster(config, spec=spec, params=params)
    return cluster.run(cluster.workload(rate, duration, tenants=tenants, trace=trace))
