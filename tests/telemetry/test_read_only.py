"""Recording is read-only: a run's results do not depend on whether
``recording()`` observed it (hubs, events and causal spans on)."""

import json

from repro.telemetry import recording


def _both(run):
    """``run()`` outside and inside a recording session."""
    plain = run()
    with recording() as session:
        recorded = run()
    assert session.hubs and session.collectors
    return plain, recorded


def _same(plain, recorded):
    assert json.dumps(plain.as_dict(), sort_keys=True) == json.dumps(
        recorded.as_dict(), sort_keys=True
    )


def test_cluster_run_with_a_crash():
    from repro.cluster import run_cluster
    from repro.core import ClusterConfig

    plain, recorded = _both(lambda: run_cluster(
        ClusterConfig(replicas=3, seed=11, fail_at=1.0, recover_after=1.0),
        rate=4.0, duration=3.0,
    ))
    assert plain.failovers > 0
    _same(plain, recorded)


def test_serve_run():
    from repro.core import ClusterConfig
    from repro.serve import LoadSpec, run_serve

    _same(*_both(lambda: run_serve(
        ClusterConfig(replicas=2, seed=5), LoadSpec(rate=6.0, duration=2.0, seed=5)
    )))


def test_disagg_run():
    from repro.core import DisaggConfig
    from repro.disagg import run_disagg

    _same(*_both(lambda: run_disagg(DisaggConfig(), rate=4.0, duration=2.0)))


def test_tensor_parallel_run():
    from repro.cc import CcMode, build_machine
    from repro.models import OPT_13B
    from repro.parallel import TensorParallelEngine

    def run():
        machine = build_machine(CcMode.ENABLED, n_gpus=2, enc_threads=2, dec_threads=2)
        return TensorParallelEngine(machine, OPT_13B, batch=8).run(output_tokens=1)

    plain, recorded = _both(run)
    assert plain == recorded
