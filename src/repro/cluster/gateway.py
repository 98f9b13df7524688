"""The encrypted-session gateway fronting the replica fleet.

The gateway is the cluster's single entry point. It owns:

* the **admission queue** — bounded FIFO; arrivals beyond capacity are
  shed immediately, queued requests older than the admission timeout
  are shed by a per-request watchdog;
* **per-tenant secure sessions** — the first time a tenant's traffic
  reaches a given replica *incarnation*, the gateway runs the attested
  key exchange (:class:`repro.cluster.tenant.TenantChannel`), paying
  a fixed handshake latency in simulated time. Every request
  and response then makes a real encrypt/decrypt round trip on that
  channel, so GCM tags and IV monotonicity are exercised — and audited
  — for the whole run;
* **routing** — a pluggable policy picks among live replicas with
  spare outstanding budget;
* **failover** — when a replica crashes, its orphaned requests are
  re-admitted at the *front* of the queue (they already waited once;
  capacity is not re-checked for them) and re-dispatched to a
  surviving replica through a fresh handshake.

All gateway-level signals flow into one :class:`TelemetryHub` labelled
``"gateway"``, which owns its metrics and spans; each replica's PCIe,
crypto and GPU lanes stay on that replica's own machine hub.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..core import ClusterConfig
from ..sim import Simulator
from ..telemetry import ClusterEvent, TelemetryHub, register_hub, trace_collector
from .replica import ClusterRequest, Replica
from .routing import RoutingPolicy, make_policy
from .tenant import ClusterIvAudit, TenantChannel

__all__ = ["Gateway"]

#: End-to-end latency target counted for SLO attainment (seconds).
_SLO_LATENCY = 30.0

#: Modeled latency of one tenant key-exchange + attestation.
_HANDSHAKE_LATENCY = 500e-6


class Gateway:
    """Admission control, routing and failover for one replica fleet."""

    def __init__(
        self,
        sim: Simulator,
        config: ClusterConfig,
        replicas: List[Replica],
        audit: Optional[ClusterIvAudit] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.replicas: Dict[int, Replica] = {r.replica_id: r for r in replicas}
        for replica in replicas:
            replica.gateway = self
        self.policy: RoutingPolicy = make_policy(config.policy)
        self.audit = audit if audit is not None else ClusterIvAudit()

        self.telemetry = TelemetryHub(sim=sim, label="gateway")
        self.metrics = self.telemetry.metrics
        register_hub(self.telemetry)
        #: Mints roots for untraced requests; None unless built while recording.
        self._collector = trace_collector(sim)

        #: Optional duck-typed observer of the request lifecycle (the
        #: online-serving front end). Hooks: ``on_token(creq, replica,
        #: index)``, ``on_complete(creq)``, ``on_shed(creq, reason)``,
        #: ``on_requeue(creq)``. Every call site is a no-op when the
        #: listener is unset, so plain cluster runs are unperturbed.
        self.listener = None

        self.queue: Deque[ClusterRequest] = deque()
        #: (tenant, replica_id, epoch) -> live secure session.
        self._channels: Dict[Tuple[str, int, int], TenantChannel] = {}
        #: Handshakes in flight (single-flight guard): concurrent
        #: dispatches for one tenant must share one key exchange, or
        #: the deterministic seeds would derive the same key twice.
        self._pending: Dict[Tuple[str, int, int], object] = {}
        self.completed: List[ClusterRequest] = []
        self.handshakes = 0
        self.failovers = 0
        #: Trace roots this gateway minted itself (cluster-only runs,
        #: where no serving front end owns the request lifecycle);
        #: rid → root context, closed at completion or shedding.
        self._minted_roots: Dict[int, object] = {}

        self._wake = sim.event()
        sim.process(self._dispatch_loop())

    # -- intake ----------------------------------------------------------

    def submit(self, creq: ClusterRequest) -> None:
        """Admit one arrival, or shed it if the queue is at capacity."""
        if len(self.queue) >= self.config.queue_capacity:
            self._shed(creq, "capacity")
            return
        if creq.trace is None and self._collector is not None:
            # No front end minted a root (plain cluster workload):
            # the gateway owns this request's trace end to end.
            creq.trace = self._collector.start_trace(
                f"cluster.req-{creq.rid}", "request", "request",
                "gateway", self.sim.now,
            )
            self._minted_roots[creq.rid] = creq.trace
        if creq.trace is not None:
            creq.trace_queue = creq.trace.collector.begin(
                creq.trace, "queue", "queue", "gateway", self.sim.now
            )
        creq.state = "queued"
        self.queue.append(creq)
        self._record_depth()
        self.metrics.counter("cluster.gateway.enqueued").add()
        self._emit("enqueue", creq)
        self.sim.process(self._watchdog(creq))
        self._kick()

    def _watchdog(self, creq: ClusterRequest):
        """Shed ``creq`` if it is still queued after the admission timeout."""
        yield self.sim.timeout(self.config.admission_timeout)
        if creq.state == "queued" and creq in self.queue:
            self.queue.remove(creq)
            self._record_depth()
            self._shed(creq, "timeout")

    def _shed(self, creq: ClusterRequest, reason: str) -> None:
        self._trace_close(creq, "trace_queue", status=f"shed:{reason}")
        self._trace_close(creq, "trace_attempt", status=f"shed:{reason}")
        self._close_minted_root(creq, status=f"shed:{reason}")
        creq.state = "shed"
        creq.finish_time = self.sim.now
        self.metrics.counter("cluster.gateway.shed").add()
        self.metrics.counter(f"cluster.gateway.shed.{reason}").add()
        self._emit("shed", creq, detail=reason)
        if self.listener is not None:
            self.listener.on_shed(creq, reason)

    # -- dispatch --------------------------------------------------------

    def _kick(self) -> None:
        if not self._wake.triggered:
            self._wake.succeed()

    def _dispatch_loop(self):
        while True:
            while self.queue:
                head = self.queue[0]
                replica = self.policy.choose(head.tenant, self._candidates())
                if replica is None:
                    break
                self.queue.popleft()
                self._record_depth()
                self.sim.process(self._dispatch(head, replica))
            self._wake = self.sim.event()
            yield self._wake

    def _candidates(self) -> List[Replica]:
        return [
            r
            for r in self.replicas.values()
            if r.alive and r.outstanding < self.config.max_outstanding
        ]

    def _dispatch(self, creq: ClusterRequest, replica: Replica):
        self._trace_close(creq, "trace_queue")
        hs_start = self.sim.now
        key = (creq.tenant, replica.replica_id, replica.epoch)
        while True:
            channel = self._channels.get(key)
            if channel is not None:
                break
            pending = self._pending.get(key)
            if pending is not None:
                # Another dispatch for this tenant is mid-handshake:
                # wait for it and reuse its session.
                yield pending
                continue
            done = self.sim.event()
            self._pending[key] = done
            try:
                yield self.sim.timeout(_HANDSHAKE_LATENCY)
            finally:
                del self._pending[key]
                done.succeed()
            if not replica.alive or replica.epoch != key[2]:
                # The replica died mid-handshake: back to the queue.
                self._requeue(creq)
                return
            channel = TenantChannel(
                creq.tenant, replica.replica_id, replica.epoch, audit=self.audit
            )
            self._channels[key] = channel
            self.handshakes += 1
            self.metrics.counter("cluster.gateway.handshakes").add()
            self._emit("handshake", creq, replica=replica.replica_id,
                       detail=f"epoch={replica.epoch}")
            break
        if not replica.alive or replica.epoch != key[2]:
            self._requeue(creq)
            return
        trace = creq.trace
        if trace is not None and self.sim.now > hs_start:
            # Attested key-exchange wait (shared or owned) — the AES
            # session-establishment leg of this request's path.
            trace.collector.add(trace, "handshake", "handshake", "gateway",
                                hs_start, self.sim.now)
        # The request ciphertext makes a functional round trip: the
        # tenant encrypts under its next TX IV, the replica decrypts
        # (GCM tag verified) — any desync or replay raises here.
        message = channel.send_request(creq.payload)
        plaintext = channel.recv_request(message)
        if plaintext != creq.payload:
            raise AssertionError("tenant payload corrupted in transit")
        creq.attempts += 1
        if creq.attempts == 1:
            creq.dispatch_time = self.sim.now
        self.metrics.counter("cluster.gateway.dispatched").add()
        self._emit("dispatch", creq, replica=replica.replica_id,
                   detail=self.policy.name)
        if trace is not None:
            # One span per delivery attempt: failover closes it with
            # a "failover" status and the retry opens attempt-N+1, so
            # crashes never leave a dangling span.
            creq.trace_attempt = trace.collector.begin(
                trace, f"attempt-{creq.attempts}", "service",
                f"replica-{replica.replica_id}", self.sim.now,
            )
        replica.submit(creq)

    def _channel_for(self, tenant: str, replica: Replica) -> Optional[TenantChannel]:
        return self._channels.get((tenant, replica.replica_id, replica.epoch))

    def _requeue(self, creq: ClusterRequest) -> None:
        """Front-of-queue re-admission (failover path; no capacity check)."""
        self._trace_close(creq, "trace_attempt", status="failover")
        if creq.trace is not None:
            creq.trace_queue = creq.trace.collector.begin(
                creq.trace, "queue", "queue", "gateway", self.sim.now
            )
        creq.state = "queued"
        self.queue.appendleft(creq)
        self._record_depth()
        self.sim.process(self._watchdog(creq))
        if self.listener is not None:
            self.listener.on_requeue(creq)
        self._kick()

    # -- replica callbacks -----------------------------------------------

    def on_token(self, creq: ClusterRequest, replica: Replica, index: int) -> None:
        """A replica decoded one token of ``creq`` (1-based ``index``).

        Notifies the listener, then stamps the request's first token
        once (after, so the listener can tell the first token apart).
        """
        if self.listener is not None:
            self.listener.on_token(creq, replica, index)
        if math.isnan(creq.first_token_time):
            creq.first_token_time = self.sim.now

    def on_complete(self, creq: ClusterRequest, replica: Replica) -> None:
        """A replica finished ``creq``: return the encrypted response."""
        channel = self._channel_for(creq.tenant, replica)
        if channel is None:
            raise AssertionError(
                f"no session for {creq.tenant} on replica-{replica.replica_id}"
            )
        response = channel.send_response(b"tokens:" + creq.payload)
        channel.recv_response(response)
        self._trace_close(creq, "trace_attempt")
        self._close_minted_root(creq, status="ok")
        creq.state = "done"
        creq.finish_time = self.sim.now
        self.completed.append(creq)
        self.metrics.counter("cluster.gateway.completed").add()
        self.metrics.latency("cluster.latency_s").record(max(0.0, creq.latency))
        self.metrics.counter(f"cluster.tenant.{creq.tenant}.completed").add()
        if creq.latency <= _SLO_LATENCY:
            self.metrics.counter(f"cluster.tenant.{creq.tenant}.slo_ok").add()
        self._emit("complete", creq, replica=replica.replica_id,
                   detail=f"latency={creq.latency:.3f}s")
        if self.listener is not None:
            self.listener.on_complete(creq)
        self._kick()

    def on_reject(self, creq: ClusterRequest, replica: Replica, reason: str) -> None:
        """A replica bounced ``creq`` (e.g. it exceeds its KV budget)."""
        self.metrics.counter("cluster.gateway.rejected").add()
        others = [
            r for r in self._candidates() if r.replica_id != replica.replica_id
        ]
        if others:
            # Another replica may have a bigger free pool; retry there.
            self._requeue(creq)
        else:
            self._shed(creq, reason)

    # -- fault injection -------------------------------------------------

    def fail(self, replica: Replica) -> List[ClusterRequest]:
        """Crash one replica; orphans re-enter the queue for failover."""
        orphans = replica.crash()
        self.metrics.counter("cluster.replica.crashes").add()
        self._emit("crash", None, replica=replica.replica_id,
                   detail=f"orphans={len(orphans)}")
        for creq in reversed(orphans):
            self.failovers += 1
            self.metrics.counter("cluster.gateway.failovers").add()
            self._emit("failover", creq, replica=replica.replica_id)
            self._requeue(creq)
        return orphans

    def recover(self, replica: Replica) -> None:
        """Bring a crashed replica back as a fresh attested incarnation."""
        replica.recover()
        self._emit("recover", None, replica=replica.replica_id,
                   detail=f"epoch={replica.epoch}")
        self._kick()

    # -- causal tracing --------------------------------------------------

    def _trace_close(
        self, creq: ClusterRequest, attr: str, status: str = "ok"
    ) -> None:
        """Close and clear one of the request's open gateway spans."""
        ctx = getattr(creq, attr)
        if ctx is None:
            return
        setattr(creq, attr, None)
        ctx.collector.end(ctx, self.sim.now, status=status)

    def _close_minted_root(self, creq: ClusterRequest, status: str) -> None:
        """Close the root span iff this gateway minted it."""
        root = self._minted_roots.pop(creq.rid, None)
        if root is not None:
            root.collector.end(root, self.sim.now, status=status)

    # -- accounting ------------------------------------------------------

    def _record_depth(self) -> None:
        self.metrics.timeseries("cluster.gateway.queue_depth").record(
            self.sim.now, float(len(self.queue))
        )

    def _emit(
        self,
        action: str,
        creq: Optional[ClusterRequest],
        replica: int = -1,
        detail: str = "",
    ) -> None:
        self.telemetry.emit(ClusterEvent(
            time=self.sim.now,
            action=action,
            tenant=creq.tenant if creq is not None else "",
            replica=replica,
            request_id=creq.rid if creq is not None else -1,
            detail=detail,
        ))

    def slo_attainment(self) -> Dict[str, float]:
        """Per-tenant fraction of completed requests inside the SLO."""
        out: Dict[str, float] = {}
        tenants = {c.tenant for c in self.completed}
        for tenant in sorted(tenants):
            done = self.metrics.counter(f"cluster.tenant.{tenant}.completed").value
            ok = self.metrics.counter(f"cluster.tenant.{tenant}.slo_ok").value
            out[tenant] = ok / done if done else 0.0
        return out
