"""Scheduler end-to-end: routing, hold-until-KV, resume vs replay."""

from repro.bench.disagg import STRESS_TRACE
from repro.cluster.routing import AffinityPolicy
from repro.core import DisaggConfig
from repro.disagg import DisaggCluster, run_disagg
from repro.hw import get_params


class TestDisaggServing:
    def test_completes_every_request_with_migrations(self):
        result = run_disagg(DisaggConfig(), rate=4.0, duration=2.0)
        assert result.offered > 0
        assert result.completed + result.shed == result.offered
        assert result.unfinished == 0
        assert result.migrations_completed >= result.completed
        assert result.migration_chunks > 0
        assert result.migration_hit_rate > 0.5
        assert result.iv_observed > 0

    def test_first_token_lands_at_prefill_completion(self):
        # DistServe semantics: TTFT is prefill completion; migration
        # gates only the second token, so every TTFT must be at least
        # the prefill cost but far below prefill + full migration +
        # queueing at low load.
        result = run_disagg(DisaggConfig(), rate=2.0, duration=2.0)
        assert result.ttfts
        assert all(t > 0 for t in result.ttfts)
        assert result.p50_ttft < 0.05

    def test_monolithic_baseline_never_migrates(self):
        config = DisaggConfig(prefill_workers=0, decode_workers=3, system="cc")
        result = run_disagg(config, rate=4.0, duration=2.0)
        assert result.completed + result.shed == result.offered
        assert result.unfinished == 0
        assert result.migrations == 0
        assert result.iv_observed == 0

    def test_native_migrates_in_the_clear(self):
        result = run_disagg(
            DisaggConfig(system="native"), rate=4.0, duration=2.0
        )
        assert result.completed + result.shed == result.offered
        assert result.migration_chunks > 0
        assert result.iv_observed == 0


class TestFailover:
    def test_decode_crash_mid_migration_resumes_from_retained_kv(self):
        # Long prompts + short outputs keep requests in the
        # migrating/holding window when the crash lands, and the
        # prefill worker survives — so failover must re-ship retained
        # copies, not recompute. Crash the worker the hot tenant's
        # rendezvous hash actually targets.
        target = max(
            range(3), key=lambda i: AffinityPolicy._weight("tenant-0", i)
        )
        config = DisaggConfig(
            system="cc", fail_at=1.0, fail_kind="decode", fail_index=target,
            recover_after=1.0,
        )
        result = run_disagg(
            config, rate=18.0, duration=2.0, tenants=1, trace=STRESS_TRACE
        )
        assert result.crashes == 1
        assert result.failovers >= 1
        assert result.resumes >= 1
        assert result.completed + result.shed == result.offered
        assert result.unfinished == 0

    def test_prefill_crash_replays_from_scratch(self):
        # The retained copy dies with its incarnation: orphans of a
        # prefill crash can only replay. A single saturated prefill
        # worker (long prompts at high rate) guarantees the crash
        # catches work in flight.
        config = DisaggConfig(
            prefill_workers=1, system="cc",
            fail_at=0.5, fail_kind="prefill", fail_index=0,
            recover_after=1.0,
        )
        result = run_disagg(
            config, rate=30.0, duration=1.5, tenants=2, trace=STRESS_TRACE
        )
        assert result.crashes == 1
        assert result.replays >= 1
        assert result.resumes == 0
        assert result.completed + result.shed == result.offered
        assert result.unfinished == 0

    def test_unrecovered_crash_still_drains(self):
        config = DisaggConfig(
            system="pipellm", fail_at=1.0, fail_kind="decode", fail_index=1,
            recover_after=0.0,
        )
        result = run_disagg(config, rate=8.0, duration=2.0)
        assert result.completed + result.shed == result.offered
        assert result.unfinished == 0


class TestDeterminism:
    def test_same_config_replays_identically(self):
        config = DisaggConfig(seed=9)
        first = run_disagg(config, rate=3.0, duration=1.5).as_dict()
        second = run_disagg(DisaggConfig(seed=9), rate=3.0, duration=1.5).as_dict()
        assert first == second

    def test_seed_changes_the_run(self):
        first = run_disagg(DisaggConfig(seed=9), rate=3.0, duration=1.5)
        second = run_disagg(DisaggConfig(seed=10), rate=3.0, duration=1.5)
        assert first.as_dict() != second.as_dict()


class TestHardwarePacks:
    def test_pack_selects_the_calibration(self):
        slow = DisaggCluster(DisaggConfig(), params=get_params("cpu-tee"))
        fast = DisaggCluster(DisaggConfig(), params=get_params("b300-cc"))
        default = DisaggCluster(DisaggConfig())
        assert slow.params.gpu.flops < default.params.gpu.flops
        assert fast.params.gpu.flops > default.params.gpu.flops
        assert (
            fast.fabric.chunk_seconds(True) != default.fabric.chunk_seconds(True)
        )
