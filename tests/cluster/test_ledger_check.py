"""The one ledger-closure check every fleet result carries.

:meth:`FleetResult.check` raises unless every offered request was
completed or shed, none is left unfinished and no GCM tag failed to
validate. A drained run passes; a run cut short with ``until=``, a
result whose counts do not add up and one with an auth failure must
all raise.
"""

import dataclasses

import pytest

from repro.cluster import Cluster, FleetResult
from repro.core import ClusterConfig


def _run(until=None):
    cluster = Cluster(ClusterConfig(replicas=2, seed=4))
    return cluster.run(cluster.workload(rate=4.0, duration=2.0), until=until)


def test_a_drained_run_closes():
    result = _run()
    assert isinstance(result, FleetResult)
    assert result.unfinished == 0 and result.offered > 0
    result.check("drained")


def test_a_run_cut_short_is_unfinished():
    result = _run(until=0.5)
    assert result.unfinished > 0
    with pytest.raises(AssertionError, match=r"cut: \d+ requests unfinished"):
        result.check("cut")


def test_a_ledger_that_does_not_add_up_raises():
    drained = _run()
    result = dataclasses.replace(drained, shed=drained.shed + 1)
    assert result.unfinished == 0
    with pytest.raises(AssertionError, match="lost: .* resolved of .* offered"):
        result.check("lost")


def test_an_auth_failure_breaks_the_acceptance_invariant():
    drained = _run()
    assert drained.auth_failures == 0
    result = dataclasses.replace(drained, auth_failures=1)
    with pytest.raises(AssertionError, match="tampered: 1 auth failures"):
        result.check("tampered")
