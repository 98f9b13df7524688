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
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core import ClusterConfig
from ..hw import HardwareParams
from ..models import OPT_13B, ModelSpec
from ..workloads import Request, TraceSpec
from .fleet import CLUSTER_TRACE, Fleet, FleetResult
from .gateway import Gateway
from .replica import ClusterRequest, Replica

__all__ = ["CLUSTER_TRACE", "Cluster", "ClusterResult", "run_cluster"]


@dataclass
class ClusterResult(FleetResult):
    """Everything one cluster run measured (``utilization`` is keyed
    by replica id)."""

    replicas: int
    policy: str
    handshakes: int
    prefix_hits: int
    swap_outs: int
    queue_depth_mean: float = 0.0
    #: tenant -> fraction of its completed requests inside the SLO.
    slo_attainment: Dict[str, float] = field(default_factory=dict)

    KEYS = (
        "replicas", "policy", "system", "duration_s", "offered", "completed",
        "shed", "unfinished", "failovers", "handshakes", "crashes",
        "prefix_hits", "swap_outs", "auth_failures", "iv_lanes",
        "iv_observed", "throughput_rps", "mean_latency_s", "p50_latency_s",
        "p99_latency_s", "queue_depth_mean", "utilization", "slo_attainment",
    )


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

    @staticmethod
    def _machine_key(replica: Replica) -> int:
        return replica.replica_id

    def _result(self, requests: List[ClusterRequest]) -> ClusterResult:
        ledger = self._ledger(requests)
        gateway = self.gateway
        depth = gateway.metrics.timeseries("cluster.gateway.queue_depth")
        return ClusterResult(
            **ledger,
            replicas=self.config.replicas,
            policy=self.config.policy,
            handshakes=gateway.handshakes,
            prefix_hits=sum(r.prefix_hits for r in self.replicas),
            swap_outs=sum(r.swap_out_count for r in self.replicas),
            queue_depth_mean=depth.time_weighted_mean(horizon=ledger["duration"]),
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
