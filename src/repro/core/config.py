"""PipeLLM runtime and cluster configuration knobs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..faults.plan import FaultPlan
from ..faults.policies import FaultPolicy

__all__ = ["ClusterConfig", "DisaggConfig", "PipeLLMConfig"]


@dataclass
class PipeLLMConfig:
    """Tunables of the speculative pipelined encryption runtime.

    Defaults match the paper's deployment: a short pipeline of large
    chunks, all encryption threads ganged per chunk for model
    offloading, asynchronous decryption on, and no sabotage.
    """

    #: Target number of speculatively encrypted chunks staged ahead.
    depth: int = 8
    #: Separate (smaller) staging window for KV-cache predictions.
    #: Under LIFO resume with interleaved swap-outs, deep KV staging
    #: inverts IV order against commit order — every inversion wastes
    #: the overwritten entries' encryptions — so the window is kept
    #: shallow; weight streaming (strictly in-order) uses ``depth``.
    kv_depth: int = 3
    #: Extra IV headroom reserved for interleaved small transfers
    #: (§5.1 "predict a larger IV ... as a leeway"). With adaptation
    #: on, this is only the starting value.
    leeway: int = 0
    #: Adapt the leeway to the observed rate of small transfers
    #: between swaps (exponential moving average).
    adaptive_leeway: bool = True
    #: Private-memory budget for staged speculative ciphertext (§6).
    max_staged_bytes: int = 32 << 30
    #: Decrypt swapped-out data off the critical path (§5.4).
    async_decrypt: bool = True
    #: Prediction sabotage for the Fig. 10 ablation: ``None`` or
    #: ``"reverse"`` (the PipeLLM-0 configuration — right set of
    #: chunks, always-wrong sequence).
    sabotage: Optional[str] = None
    #: How the runtime survives faults: retry/backoff for recovery
    #: re-encryptions, optional per-request timeout, and the
    #: degradation-controller thresholds. ``None`` uses the defaults.
    fault_policy: Optional[FaultPolicy] = None

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.leeway < 0:
            raise ValueError("leeway must be non-negative")


#: Routing policy names accepted by :class:`ClusterConfig` (resolved
#: by :mod:`repro.cluster.routing`).
CLUSTER_POLICIES = ("round-robin", "least-loaded", "affinity")

#: Per-machine runtimes a fleet can run: speculative PipeLLM, inline
#: CC, or CC off (the w/o-CC baseline).
FLEET_SYSTEMS = ("pipellm", "cc", "native")


@dataclass
class ClusterConfig:
    """Tunables of the multi-replica confidential serving cluster.

    One config describes the whole fleet: how many CVM+GPU replicas
    run inside the shared simulator, how the gateway admits and routes
    per-tenant sessions, the SLO the service advertises, and the
    optional replica fault to inject.
    """

    #: Number of CVM+GPU replicas behind the gateway.
    replicas: int = 2
    #: Routing policy name (see ``CLUSTER_POLICIES``).
    policy: str = "least-loaded"
    #: Per-replica runtime: "pipellm", "cc" (inline baseline) or
    #: "native" (CC off — the w/o-CC fleet baseline).
    system: str = "pipellm"
    #: Gateway admission queue capacity; arrivals beyond it are shed.
    queue_capacity: int = 64
    #: Queued requests older than this are shed (seconds).
    admission_timeout: float = 5.0
    #: Maximum requests concurrently resident on one replica
    #: (running + locally queued); the gateway holds the rest.
    max_outstanding: int = 8
    #: GPU bytes reserved away from the KV pool (pressure knob).
    reserve_bytes: int = 4 << 30
    #: Simulated time at which one replica crashes (None = no fault).
    fail_at: Optional[float] = None
    #: Which replica index the fault hits.
    fail_replica: int = 0
    #: Crash-to-recovery delay (seconds); the replica re-attests and
    #: rejoins with a fresh machine incarnation.
    recover_after: float = 10.0
    #: Workload / payload seed (the CLI ``--seed`` overrides it).
    seed: int = 42
    #: Optional fault plan threaded through every replica machine
    #: (PCIe/engine/crypto faults via per-replica forked injectors)
    #: and driving the random replica-crash schedule
    #: (``replica_crash_rate``). ``fail_at`` above remains the legacy
    #: one-shot crash and composes with the plan.
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.policy not in CLUSTER_POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; choose from {CLUSTER_POLICIES}"
            )
        if self.system not in FLEET_SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.admission_timeout <= 0:
            raise ValueError("admission_timeout must be positive")
        if self.max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")
        if not 0 <= self.fail_replica < self.replicas:
            raise ValueError("fail_replica out of range")
        if self.recover_after < 0:
            raise ValueError("recover_after must be non-negative")


@dataclass
class DisaggConfig:
    """Tunables of the disaggregated prefill/decode serving fleet.

    One config describes the split topology: how many dedicated
    prefill and decode workers share the simulator, which migration
    system moves KV caches between them, how decode placement chases
    KV locality, and the optional worker crash to inject.
    """

    #: Dedicated prompt-prefill workers. ``0`` selects the monolithic
    #: baseline: requests go straight to decode workers, which prefill
    #: inline — serialized with their own decode steps.
    prefill_workers: int = 1
    #: Continuous-batching decode workers.
    decode_workers: int = 3
    #: Migration/runtime system: "pipellm" (speculative staged IVs),
    #: "cc" (inline serialized AES-GCM) or "native" (CC off).
    system: str = "pipellm"
    #: Decode-placement policy name (see ``CLUSTER_POLICIES``);
    #: prefill placement is always least-loaded.
    decode_policy: str = "affinity"
    #: GPU bytes reserved away from each decode worker's KV pool.
    reserve_bytes: int = 4 << 30
    #: Simulated time at which one worker crashes (None = no fault).
    fail_at: Optional[float] = None
    #: Which pool the fault hits: "prefill" or "decode".
    fail_kind: str = "decode"
    #: Worker index within that pool.
    fail_index: int = 0
    #: Crash-to-recovery delay (seconds); the worker re-attests and
    #: rejoins as a fresh incarnation.
    recover_after: float = 5.0
    #: Workload / payload seed (the CLI ``--seed`` overrides it).
    seed: int = 42
    #: Optional fault plan threaded through every worker machine and
    #: the migration fabric (mispredict storms, chunk drops, random
    #: worker crashes via ``replica_crash_rate``).
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.prefill_workers < 0:
            raise ValueError("prefill_workers must be >= 0")
        if self.decode_workers < 1:
            raise ValueError("decode_workers must be >= 1")
        if self.system not in FLEET_SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}")
        if self.decode_policy not in CLUSTER_POLICIES:
            raise ValueError(
                f"unknown policy {self.decode_policy!r}; "
                f"choose from {CLUSTER_POLICIES}"
            )
        if self.fail_kind not in ("prefill", "decode"):
            raise ValueError("fail_kind must be 'prefill' or 'decode'")
        pool = self.prefill_workers if self.fail_kind == "prefill" else self.decode_workers
        if self.fail_at is not None and not 0 <= self.fail_index < pool:
            raise ValueError("fail_index out of range for its pool")
        if self.recover_after < 0:
            raise ValueError("recover_after must be non-negative")
