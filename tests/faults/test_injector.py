"""FaultInjector: determinism, domain stream isolation, window gating."""

import hashlib
from dataclasses import replace

from repro.faults import FaultInjector, FaultPlan

STORM = FaultPlan.storm(0.5)

#: Every per-event rate > 0, so each query draws from its domain.
EVERY_RATE = FaultPlan(
    name="every-rate",
    pcie_jitter_rate=0.3, pcie_drop_rate=0.2, tag_corrupt_rate=0.15,
    iv_desync_rate=0.1, mispredict_rate=0.4, link_jitter_rate=0.35,
    link_drop_rate=0.25, link_mispredict_rate=0.45,
    migration_mispredict_rate=0.3, migration_drop_rate=0.2,
)

#: sha256 of 500 rounds of :func:`decisions` at seed 123 plus the fired
#: counts. Any change to which stream a query draws from, or in what
#: order, changes it.
GOLDEN_DECISIONS = "23eedfeefd2ec84dd477098ded4d7952fdc4664b0a9b76cb256bc43b4129d3d8"


def decisions(injector, n=200):
    """A fixed probe sequence over every per-event decision kind."""
    out = []
    for _ in range(n):
        out.append((
            injector.mispredict(),
            injector.corrupt_tag(),
            injector.desync_iv(),
            injector.pcie_drop("h2d"),
            round(injector.pcie_jitter("h2d"), 12),
            injector.link_drop("0->1"),
            round(injector.link_jitter("0->1"), 12),
            injector.link_mispredict("0->1"),
            injector.migration_mispredict("p0.e1->d0"),
            injector.migration_drop("migrate:p0.e1->d0.e1"),
        ))
    return out


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        a = FaultInjector(STORM, seed=123)
        b = FaultInjector(STORM, seed=123)
        assert decisions(a) == decisions(b)
        assert a.counts == b.counts

    def test_different_seeds_diverge(self):
        a = FaultInjector(STORM, seed=123)
        b = FaultInjector(STORM, seed=124)
        assert decisions(a) != decisions(b)

    def test_domains_are_isolated(self):
        # Interleaving extra PCIe draws must not perturb which swaps
        # the crypto domain decides to corrupt.
        plan = FaultPlan(tag_corrupt_rate=0.3, pcie_drop_rate=0.3)
        a = FaultInjector(plan, seed=9)
        b = FaultInjector(plan, seed=9)
        crypto_a = [a.corrupt_tag() for _ in range(100)]
        crypto_b = []
        for _ in range(100):
            b.pcie_drop("h2d")  # extra traffic in another domain
            crypto_b.append(b.corrupt_tag())
        assert crypto_a == crypto_b

    def test_children_decoupled_but_deterministic(self):
        root1 = FaultInjector(STORM, seed=7)
        root2 = FaultInjector(STORM, seed=7)
        assert decisions(root1.child("r0")) == decisions(root2.child("r0"))
        assert decisions(root1.child("r0")) != decisions(root2.child("r1"))


class TestGolden:
    def test_decisions_are_pinned(self):
        # The draw order of every query is part of the replay contract:
        # any reordering of RNG draws changes this digest.
        injector = FaultInjector(EVERY_RATE, seed=123)
        probe = decisions(injector, 500)
        blob = repr((probe, sorted(injector.counts.items()))).encode()
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_DECISIONS


class TestWindowGating:
    def test_inactive_before_start(self):
        class Clock:
            now = 0.0
        injector = FaultInjector(replace(STORM, start=1.0, stop=2.0), seed=1).bind(Clock())
        assert not any(any(d[:4]) for d in decisions(injector, 50))
        assert injector.injected_total == 0
        Clock.now = 1.5
        assert any(any(d[:4]) for d in decisions(injector, 50))
        Clock.now = 2.0
        before = injector.injected_total
        decisions(injector, 50)
        assert injector.injected_total == before

    def test_zero_rates_never_fire(self):
        injector = FaultInjector(FaultPlan(), seed=1)
        assert not any(any(d[:4]) for d in decisions(injector, 50))


class TestBookkeeping:
    def test_counts_reflect_fired_faults(self):
        injector = FaultInjector(STORM, seed=42)
        decisions(injector, 300)
        assert injector.injected_total == sum(injector.counts.values())
        assert injector.counts.get("mispredict", 0) > 0
        assert injector.counts.get("tag-corrupt", 0) > 0

    def test_note_recovery_counts_without_hub(self):
        injector = FaultInjector(STORM, seed=1)
        injector.note_recovery("auth-recover", attempts=2)
        injector.note_recovery("auth-recover")
        injector.note_recovery("degrade")
        assert injector.recoveries == {"auth-recover": 2, "degrade": 1}
        assert injector.recovery_total == 3

    def test_engine_service_time_slowdown(self):
        plan = FaultPlan(engine_slowdown=2.0)
        injector = FaultInjector(plan, seed=1)
        assert injector.engine_service_time(1e-3, "enc") >= 2e-3

    def test_crash_schedule_deterministic(self):
        plan = FaultPlan(replica_crash_rate=2.0)
        a = FaultInjector(plan, seed=5)
        b = FaultInjector(plan, seed=5)
        seq_a = [(a.next_crash_interval(), a.pick_replica(4)) for _ in range(20)]
        seq_b = [(b.next_crash_interval(), b.pick_replica(4)) for _ in range(20)]
        assert seq_a == seq_b
        assert all(interval > 0 for interval, _ in seq_a)
        assert all(0 <= victim < 4 for _, victim in seq_a)

    def test_no_crash_schedule_without_rate(self):
        assert FaultInjector(FaultPlan(), seed=1).next_crash_interval() is None
