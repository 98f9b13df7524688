"""End-to-end cluster runs: completion, shedding, policies, metrics."""

import pytest

from repro.cluster import CLUSTER_TRACE, Cluster, run_cluster
from repro.core import ClusterConfig


def small_run(config, rate=3.0, duration=6.0, tenants=3):
    cluster = Cluster(config)
    result = cluster.run(cluster.workload(rate=rate, duration=duration,
                                          tenants=tenants))
    return cluster, result


class TestClusterRuns:
    def test_all_requests_resolve(self):
        _, result = small_run(ClusterConfig(replicas=2))
        assert result.offered > 0
        assert result.completed + result.shed == result.offered
        assert result.unfinished == 0
        assert result.auth_failures == 0

    def test_single_replica_fleet(self):
        _, result = small_run(ClusterConfig(replicas=1, policy="round-robin"))
        assert result.completed == result.offered
        assert result.utilization[0] > 0

    def test_latencies_and_throughput(self):
        _, result = small_run(ClusterConfig(replicas=2))
        assert len(result.latencies) == result.completed
        assert 0 < result.p50_latency <= result.p99_latency
        assert result.throughput > 0
        assert 0 < result.duration < 60

    def test_ttfts_recorded_per_completion(self):
        # The gateway stamps each request's first token once, so every
        # completion carries a TTFT no longer than its latency.
        _, result = small_run(ClusterConfig(replicas=2, fail_at=1.0, recover_after=1.0))
        assert len(result.ttfts) == result.completed > 0
        assert all(
            0 < ttft <= latency
            for ttft, latency in zip(result.ttfts, result.latencies)
        )

    def test_every_request_encrypted_roundtrip(self):
        # One request IV + one response IV per completion, more with
        # failover retries — never fewer.
        _, result = small_run(ClusterConfig(replicas=2))
        assert result.iv_observed >= 2 * result.completed
        assert result.iv_lanes >= 2  # at least one key, two directions

    def test_deterministic_given_seed(self):
        config = ClusterConfig(replicas=2, seed=11)
        _, first = small_run(config)
        _, second = small_run(ClusterConfig(replicas=2, seed=11))
        assert first.as_dict() == second.as_dict()

    def test_seed_changes_workload(self):
        _, first = small_run(ClusterConfig(replicas=2, seed=1))
        _, second = small_run(ClusterConfig(replicas=2, seed=2))
        assert first.as_dict() != second.as_dict()

    def test_native_fleet_runs_without_crypto(self):
        _, result = small_run(ClusterConfig(replicas=2, system="native"))
        assert result.completed == result.offered
        # Tenant-gateway sessions still run even when replicas skip CC.
        assert result.iv_observed >= 2 * result.completed


class TestAdmissionControl:
    def test_capacity_shedding(self):
        config = ClusterConfig(
            replicas=1, queue_capacity=2, max_outstanding=1,
            admission_timeout=30.0,
        )
        cluster, result = small_run(config, rate=40.0, duration=1.0)
        assert result.shed > 0
        assert result.completed + result.shed == result.offered
        shed_capacity = cluster.gateway.metrics.counter(
            "cluster.gateway.shed.capacity"
        ).value
        assert shed_capacity > 0

    def test_timeout_shedding(self):
        config = ClusterConfig(
            replicas=1, queue_capacity=64, max_outstanding=1,
            admission_timeout=0.2,
        )
        cluster, result = small_run(config, rate=30.0, duration=1.0)
        shed_timeout = cluster.gateway.metrics.counter(
            "cluster.gateway.shed.timeout"
        ).value
        assert shed_timeout > 0
        assert result.completed + result.shed == result.offered

    def test_queue_depth_recorded(self):
        config = ClusterConfig(replicas=1, max_outstanding=1)
        cluster, result = small_run(config, rate=20.0, duration=1.0)
        series = cluster.gateway.metrics.timeseries("cluster.gateway.queue_depth")
        assert series.points
        assert max(v for _, v in series.points) > 0


class TestPolicies:
    def test_affinity_needs_fewer_handshakes(self):
        _, affinity = small_run(
            ClusterConfig(replicas=4, policy="affinity"), rate=4.0
        )
        _, spread = small_run(
            ClusterConfig(replicas=4, policy="round-robin"), rate=4.0
        )
        # Same workload either way; sticking tenants to replicas means
        # strictly fewer (tenant, replica) sessions.
        assert affinity.completed == spread.completed
        assert affinity.handshakes < spread.handshakes
        assert affinity.prefix_hits >= spread.prefix_hits

    def test_least_loaded_uses_whole_fleet(self):
        _, result = small_run(
            ClusterConfig(replicas=2, policy="least-loaded"), rate=6.0
        )
        assert all(frac > 0 for frac in result.utilization.values())


class TestTelemetry:
    def test_cluster_events_recorded(self):
        from repro.telemetry import ClusterEvent, recording

        with recording() as session:
            _, result = small_run(ClusterConfig(replicas=2))
        gateway_hubs = [h for h in session.hubs if h.label == "gateway"]
        assert len(gateway_hubs) == 1
        events = gateway_hubs[0].events_of(ClusterEvent)
        actions = {e.action for e in events}
        assert {"enqueue", "dispatch", "handshake", "complete"} <= actions
        completes = [e for e in events if e.action == "complete"]
        assert len(completes) == result.completed

    def test_chrome_trace_has_cluster_lane(self):
        from repro.telemetry import chrome_trace, recording

        with recording() as session:
            small_run(ClusterConfig(replicas=2))
        trace = chrome_trace(session.hubs)
        names = {e.get("name") for e in trace["traceEvents"]}
        assert any(n and n.startswith("cluster") or n == "step"
                   for n in names if n)


class TestWorkload:
    def test_tenant_assignment_within_bounds(self):
        cluster = Cluster(ClusterConfig(replicas=1, seed=3))
        creqs = cluster.workload(rate=10.0, duration=2.0, tenants=3)
        tenants = {c.tenant for c in creqs}
        assert tenants <= {f"tenant-{i}" for i in range(3)}
        assert all(len(c.payload) == 16 for c in creqs)

    def test_trace_spec_is_small(self):
        assert CLUSTER_TRACE.max_prompt <= 256
        assert CLUSTER_TRACE.max_output <= 64

    def test_run_cluster_convenience(self):
        result = run_cluster(
            ClusterConfig(replicas=1), rate=2.0, duration=2.0, tenants=2
        )
        assert result.completed + result.shed == result.offered
