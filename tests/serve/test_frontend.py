"""The serving front end over the confidential cluster.

Covers the request ledger (every offered request resolves exactly
once), the serving metrics (TTFT/TPOT into the gateway's MetricSet,
SLO attainment counters), admission-layer shedding, and the typed
``ServeEvent`` lifecycle on the telemetry bus.
"""

import math

import pytest

from repro.cluster import Cluster
from repro.core import ClusterConfig
from repro.faults import FaultPlan
from repro.serve import (
    LoadSpec,
    ServeFrontend,
    SloSpec,
    generate_load,
    run_serve,
)
from repro.telemetry import ServeEvent, recording

#: KV squeeze matching bench.serve: forces swap pressure at high load.
RESERVE = 55 << 30


def _config(**kw):
    base = dict(
        replicas=2, system="pipellm", policy="least-loaded",
        reserve_bytes=RESERVE, max_outstanding=12,
    )
    base.update(kw)
    return ClusterConfig(**base)


class TestAccounting:
    def test_every_offered_request_resolves(self):
        result = run_serve(_config(), LoadSpec(rate=10.0, duration=4.0))
        assert result.offered > 0
        assert result.completed + result.shed == result.offered

    def test_ledger_closes_under_overload(self):
        result = run_serve(_config(), LoadSpec(rate=120.0, duration=3.0))
        assert result.shed > 0
        assert result.completed + result.shed == result.offered
        assert sum(result.shed_by_reason.values()) == result.shed

    def test_ledger_closes_across_failover(self):
        result = run_serve(
            _config(fail_at=1.0, recover_after=2.0),
            LoadSpec(rate=8.0, duration=5.0),
        )
        assert result.failovers > 0
        assert result.completed + result.shed == result.offered
        assert result.auth_failures == 0

    def test_fault_plan_crash_schedule_drives_serve_runs(self):
        # ClusterConfig.fault_plan's random replica crashes apply to the
        # serving front end too, not only to run_cluster/run_disagg.
        plan = FaultPlan(replica_crash_rate=1.0, replica_recover_after=0.5)
        result = run_serve(
            ClusterConfig(replicas=2, fault_plan=plan, seed=5),
            LoadSpec(rate=8, duration=4, seed=5), seed=5,
        )
        assert result.crashes > 0
        assert result.completed + result.shed == result.offered
        assert result.auth_failures == 0


class TestServingMetrics:
    def test_ttft_and_tpot_recorded_per_completion(self):
        cluster = Cluster(_config())
        frontend = ServeFrontend(cluster)
        requests = generate_load(LoadSpec(rate=10.0, duration=3.0))
        result = frontend.run(requests, duration=3.0)
        ttft = cluster.gateway.metrics.latencies["serve.ttft_s"]
        assert ttft.count == result.completed
        # TPOT skips single-token completions.
        assert len(result.tpots) <= result.completed
        assert all(t > 0 for t in result.ttfts)
        assert all(t > 0 for t in result.tpots)

    def test_low_load_attains_slo(self):
        result = run_serve(
            _config(), LoadSpec(rate=4.0, duration=4.0), slo=SloSpec()
        )
        assert result.shed == 0
        assert result.attainment >= 0.95

    def test_responses_carry_stream_chunks(self):
        result = run_serve(_config(), LoadSpec(rate=4.0, duration=2.0))
        served = [r for r in result.responses if r.ok]
        assert served
        for response in served:
            assert len(response.chunks) == response.usage.completion_tokens
            indices = [c.index for c in response.chunks]
            assert indices == list(range(1, len(indices) + 1))
            times = [c.time for c in response.chunks]
            assert times == sorted(times)


class TestAdmissionIntegration:
    def test_deadline_sheds_have_responses_with_reason(self):
        result = run_serve(
            _config(), LoadSpec(rate=120.0, duration=2.0), admission="slo"
        )
        assert result.shed_by_reason.get("deadline", 0) > 0
        shed = [r for r in result.responses if not r.ok]
        assert all(r.finish_reason.startswith("shed:") for r in shed)
        # A deadline shed never produced a token.
        deadline = [r for r in shed if r.finish_reason == "shed:deadline"]
        assert all(math.isnan(r.first_token_time) for r in deadline)

    def test_fifo_policy_relies_on_gateway_shedding(self):
        result = run_serve(
            _config(), LoadSpec(rate=120.0, duration=2.0), admission="fifo"
        )
        assert result.admission == "fifo"
        # Everything shed by fifo comes from the gateway's own reasons.
        assert set(result.shed_by_reason) <= {"capacity", "timeout", "kv-budget"}


class TestServeEvents:
    def test_lifecycle_event_order_per_request(self):
        with recording():
            cluster = Cluster(_config())
            frontend = ServeFrontend(cluster)
            requests = generate_load(LoadSpec(rate=10.0, duration=3.0))
            result = frontend.run(requests, duration=3.0)
        events = [e for e in frontend.telemetry.events if isinstance(e, ServeEvent)]
        assert events
        order = {"arrive": 0, "hold": 1, "admit": 2, "first-token": 3,
                 "token": 4, "restart": 5, "complete": 6, "shed": 6}
        by_request = {}
        for event in events:
            by_request.setdefault(event.request_id, []).append(event)
        assert len(by_request) == result.offered
        for rid, stream in by_request.items():
            assert stream[0].action == "arrive"
            assert stream[-1].action in ("complete", "shed")
            times = [e.time for e in stream]
            assert times == sorted(times)
            terminal = [e for e in stream if e.action in ("complete", "shed")]
            assert len(terminal) == 1

    def test_no_events_outside_recording(self):
        cluster = Cluster(_config())
        frontend = ServeFrontend(cluster)
        frontend.run(generate_load(LoadSpec(rate=5.0, duration=1.0)), duration=1.0)
        assert frontend.telemetry.events == []


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = run_serve(_config(), LoadSpec(rate=20.0, duration=3.0))
        b = run_serve(_config(), LoadSpec(rate=20.0, duration=3.0))
        assert a.as_dict() == b.as_dict()

    def test_seed_changes_the_run(self):
        a = run_serve(_config(), LoadSpec(rate=20.0, duration=3.0, seed=1))
        b = run_serve(_config(), LoadSpec(rate=20.0, duration=3.0, seed=2))
        assert a.as_dict() != b.as_dict()
