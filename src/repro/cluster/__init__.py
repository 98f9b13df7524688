"""Multi-replica confidential serving cluster.

N independent CVM+GPU replicas (each a full :class:`repro.cc.Machine`
with its own attested session) run inside one shared simulator behind
an encrypted-session gateway: per-tenant attested key exchange,
admission control with shedding, pluggable routing (round-robin /
least-loaded / tenant-affinity), and crash/recover failover that
re-admits orphaned requests through fresh handshakes while a
cluster-wide audit proves no IV is ever reused under any key.

The machine lifecycle (:class:`Incarnation`) and the fleet driver
(:class:`Fleet`) here are shared with :mod:`repro.disagg` and
:mod:`repro.serve`.
"""

from .cluster import CLUSTER_TRACE, Cluster, ClusterResult, run_cluster
from .fleet import Fleet, FleetResult
from .gateway import Gateway
from .incarnation import Incarnation, IncarnationDead
from .replica import ClusterRequest, Replica
from .routing import (
    POLICIES,
    AffinityPolicy,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    RoutingPolicy,
    make_policy,
)
from .tenant import ClusterIvAudit, IvReuseError, TenantChannel

__all__ = [
    "AffinityPolicy",
    "CLUSTER_TRACE",
    "Cluster",
    "ClusterIvAudit",
    "ClusterRequest",
    "ClusterResult",
    "Fleet",
    "FleetResult",
    "Gateway",
    "Incarnation",
    "IncarnationDead",
    "IvReuseError",
    "LeastLoadedPolicy",
    "POLICIES",
    "Replica",
    "RoundRobinPolicy",
    "RoutingPolicy",
    "TenantChannel",
    "make_policy",
    "run_cluster",
]
