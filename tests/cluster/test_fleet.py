"""The shared fleet driver under both topologies.

``Cluster`` (replicas behind a gateway) and ``DisaggCluster`` (prefill
and decode pools behind the migration scheduler) run on one
:class:`~repro.cluster.fleet.Fleet`. These tests drive the fault plan's
random crash schedule through both and check the invariants every
fleet owes: every crash recovers into a new epoch, the ledger closes,
the IV audit holds, and a seed replays exactly.
"""

import json

import pytest

from repro.cluster import Cluster
from repro.core import ClusterConfig, DisaggConfig
from repro.disagg import DisaggCluster
from repro.faults import FaultPlan

CRASH_PLAN = FaultPlan(name="crashes", replica_crash_rate=1.0, replica_recover_after=0.5)

FLEETS = {
    "cluster": lambda **kw: Cluster(ClusterConfig(replicas=2, **kw)),
    "disagg": lambda **kw: DisaggCluster(
        DisaggConfig(prefill_workers=1, decode_workers=2, **kw)
    ),
}


def _crash_run(name: str, seed: int = 5):
    fleet = FLEETS[name](fault_plan=CRASH_PLAN, seed=seed)
    result = fleet.run(fleet.workload(rate=6.0, duration=4.0, tenants=3))
    return fleet, result


@pytest.fixture(scope="module", params=sorted(FLEETS))
def crash_run(request):
    return (request.param, *_crash_run(request.param))


class TestPlanPacedCrashes:
    def test_the_schedule_crashes_machines(self, crash_run):
        _, fleet, result = crash_run
        assert result.crashes >= 1
        assert result.crashes == sum(m.crashes for m in fleet.machines)
        assert fleet.faults.counts["replica-crash"] == result.crashes

    def test_every_crash_recovers_into_a_new_epoch(self, crash_run):
        _, fleet, _ = crash_run
        for machine in fleet.machines:
            assert machine.alive
            assert machine.epoch == machine.crashes + 1

    def test_ledger_closes(self, crash_run):
        _, _, result = crash_run
        assert result.offered > 0
        assert result.unfinished == 0
        assert result.completed + result.shed == result.offered

    def test_iv_audit_held(self, crash_run):
        # The live audit raises IvReuseError on any repeated (key, IV),
        # so a finished run is the proof; it must also have seen traffic.
        _, fleet, result = crash_run
        assert fleet.audit.observed > 0
        assert result.iv_observed == fleet.audit.observed

    def test_same_seed_replays_identically(self, crash_run):
        name, _, result = crash_run
        _, again = _crash_run(name)
        assert json.dumps(again.as_dict(), sort_keys=True) == json.dumps(
            result.as_dict(), sort_keys=True
        )


def test_both_fleets_draw_the_same_workload():
    draws = []
    for name in sorted(FLEETS):
        fleet = FLEETS[name](seed=11)
        draws.append([
            (c.rid, c.tenant, c.request.arrival_time)
            for c in fleet.workload(rate=5.0, duration=3.0, tenants=3)
        ])
    assert draws[0] and draws[0] == draws[1]


@pytest.mark.parametrize("name", sorted(FLEETS))
def test_workload_rejects_zero_tenants(name):
    # The same check and message as the serving front end's LoadSpec.
    with pytest.raises(ValueError, match="tenants must be >= 1"):
        FLEETS[name]().workload(rate=5.0, duration=3.0, tenants=0)
