"""Pinned summaries of the three fleet results.

One small seeded run per fleet front end — a cluster with a scripted
replica crash, a disaggregated fleet with a scripted decode-worker
crash, and a serving front end at overload that sheds — folded into
its result. The sha256 of ``json.dumps(result.as_dict())`` (insertion
order, so key order is pinned too) and of each per-request list the
result carries are pinned, so any change to what a run measures, or to
how a summary is laid out, shows up here.
"""

import hashlib
import json

import pytest

from repro.bench.serve import SERVE_MAX_OUTSTANDING, SERVE_RESERVE_BYTES
from repro.cluster import run_cluster
from repro.core import ClusterConfig, DisaggConfig
from repro.disagg import run_disagg
from repro.serve import LoadSpec, run_serve


def _cluster():
    config = ClusterConfig(replicas=2, fail_at=1.0, recover_after=1.0, seed=3)
    return run_cluster(config, rate=3.0, duration=4.0, tenants=3)


def _disagg():
    config = DisaggConfig(
        prefill_workers=1, decode_workers=2, fail_at=1.0,
        fail_kind="decode", fail_index=1, recover_after=1.0, seed=3,
    )
    return run_disagg(config, rate=6.0, duration=3.0, tenants=3)


def _serve():
    config = ClusterConfig(
        replicas=2, system="cc", policy="least-loaded",
        reserve_bytes=SERVE_RESERVE_BYTES,
        max_outstanding=SERVE_MAX_OUTSTANDING,
    )
    return run_serve(config, LoadSpec(rate=40.0, duration=2.0), seed=3)


#: name -> (run, the per-request lists that result carries).
RUNS = {
    "cluster": (_cluster, ("ttfts", "latencies")),
    "disagg": (_disagg, ("ttfts", "latencies")),
    "serve": (_serve, ("ttfts", "tpots")),
}


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


GOLDEN = {
    "cluster": {
        "as_dict": "c239463a6323d18e9ee466cd128e56242e9dcb4706eac826ddba59420b476a55",
        "ttfts": (
            10,
            "364decfa394736ad310b6a1f87fcc0f364f592210f6e7b03d6b1ba5093ff6769",
        ),
        "latencies": (
            10,
            "dce4afcf171824f28680d293b3b87ee442d93b44d3f613ff026a8922e7369b4f",
        ),
    },
    "disagg": {
        "as_dict": "8a6ebed5091520afd68ba0aeb51b1f6d57f618c87eeac7f398a4e9ab0ccd4d75",
        "ttfts": (
            15,
            "c579fee1e169a04b6975779b02d00692b10ba58851882c88cde7464372944d01",
        ),
        "latencies": (
            15,
            "a70a99292bab635d3a8e289e0ed6657d77f01d15b87f4b7615b22b3a90c6ed8e",
        ),
    },
    "serve": {
        "as_dict": "c546656a3b94be664cd2d26f869bab52605d5d82efaae492ded5432cec5c8216",
        "ttfts": (
            74,
            "1b5656914bea4d188f6822313a81d003074dc13d1104b1716970052ed88f0106",
        ),
        "tpots": (
            74,
            "e14b7c1a57a42c716fb86bf9475c592ce75ba98800fd441e19fa8579e69e7623",
        ),
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_summary_is_pinned(name):
    run, lists = RUNS[name]
    result = run()
    observed = {"as_dict": _digest(result.as_dict())}
    for attr in lists:
        observed[attr] = (len(getattr(result, attr)), _digest(getattr(result, attr)))
    assert observed == GOLDEN[name]


def test_the_runs_exercise_crashes_and_sheds():
    assert _cluster().crashes >= 1
    disagg = _disagg()
    assert disagg.crashes >= 1 and disagg.failovers >= 1
    assert _serve().shed > 0
