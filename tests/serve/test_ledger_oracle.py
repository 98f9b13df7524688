"""The serving summary against a reference fold of its responses.

``ServeFrontend.result`` folds a run through the fleet's shared ledger
(``Fleet._ledger``) over the front end's requests. :func:`reference_result`
is the independent fold: it counts the run from the
:class:`~repro.serve.api.CompletionResponse` objects the front end
returned, one per resolved request. Every :class:`ServeResult` field
must agree on seeded runs that crash a replica, shed at the gateway and
expire admission holds.
"""

import dataclasses
import math
from typing import Dict

import pytest

from repro.bench.serve import serve_config
from repro.cluster import Cluster
from repro.serve import LoadSpec, ServeFrontend, ServeResult, generate_load


def reference_result(
    frontend: ServeFrontend, duration: float, trace: str = "", rate: float = 0.0
) -> ServeResult:
    """Fold a finished run from its responses alone."""
    responses = frontend.responses
    ok = [r for r in responses if r.ok]
    shed = [r for r in responses if not r.ok]
    shed_by_reason: Dict[str, int] = {}
    for response in shed:
        reason = response.finish_reason.split(":", 1)[1]
        shed_by_reason[reason] = shed_by_reason.get(reason, 0) + 1
    cluster = frontend.cluster
    offered = len(frontend.records)
    return ServeResult(
        system=frontend.config.system,
        duration=duration,
        offered=offered,
        completed=len(ok),
        shed=len(shed),
        unfinished=offered - len(responses),
        failovers=frontend.gateway.failovers,
        crashes=sum(r.crashes for r in cluster.replicas),
        auth_failures=sum(r.auth_failures for r in cluster.replicas),
        iv_lanes=cluster.audit.keys_seen(),
        iv_observed=cluster.audit.observed,
        latencies=[r.latency for r in ok if not math.isnan(r.latency)],
        ttfts=[r.ttft for r in ok if not math.isnan(r.ttft)],
        utilization={},
        admission=frontend.admission.name,
        trace=trace,
        rate=rate,
        attained=int(frontend.gateway.metrics.counter("serve.slo_attained").value),
        shed_by_reason=shed_by_reason,
        tpots=[r.tpot for r in ok if not math.isnan(r.tpot)],
        swap_outs=sum(r.swap_out_count for r in cluster.replicas),
        responses=list(responses),
    )


def _crash(result: ServeResult) -> bool:
    return result.failovers >= 1 and result.crashes >= 1


def _gateway_sheds(result: ServeResult) -> bool:
    return result.shed > 0 and set(result.shed_by_reason) <= {
        "capacity", "timeout", "kv-budget",
    }


def _hold_expiry(result: ServeResult) -> bool:
    return result.shed_by_reason.get("deadline", 0) > 0


#: name -> (config overrides, admission, rate, duration, seed, what the
#: run must exercise).
SCENARIOS = {
    "replica-crash-failover": (
        dict(fail_at=1.0, recover_after=2.0), "slo", 8.0, 5.0, 5, _crash,
    ),
    "fifo-overload": ({}, "fifo", 120.0, 2.0, 7, _gateway_sheds),
    "slo-hold-expiry": ({}, "slo", 120.0, 2.0, 11, _hold_expiry),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_field_matches_the_response_fold(name):
    overrides, admission, rate, duration, seed, exercised = SCENARIOS[name]
    cluster = Cluster(serve_config("pipellm", seed=seed, **overrides))
    frontend = ServeFrontend(cluster, admission=admission)
    load = LoadSpec(rate=rate, duration=duration, seed=seed)
    result = frontend.run(
        generate_load(load), duration=duration, trace=load.trace.name, rate=rate
    )
    assert exercised(result), result.as_dict()
    reference = reference_result(frontend, duration, trace=load.trace.name, rate=rate)
    for field in dataclasses.fields(ServeResult):
        assert getattr(result, field.name) == getattr(reference, field.name), field.name
