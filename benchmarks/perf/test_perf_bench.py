"""Self-tests of the host-time benchmark, at reduced sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAMES = list(W.WORKLOADS)


def _small(name):
    return W.WORKLOADS[name].run, W.SMALL_SIZES[name]


def _targets():
    """(owner, attribute) of every wrapper target that resolves."""
    import importlib

    out = []
    for target in (*layers.TIMED, *layers.COUNTED):
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        out.append((owner, attr))
    return out


def _state(owner, attr):
    return vars(owner).get(attr, "<inherited>")


def test_benchmark_json_lists_the_workloads_and_layer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.LAYER_METRICS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)


@pytest.mark.parametrize("name", NAMES)
def test_every_declared_metric_is_emitted_with_its_unit(name):
    size = W.SMALL_SIZES[name]
    plain = run.child_measure(name, 3, trace=False, size=size, iterations=2)
    plain["setup_s"] = run.child_setup(name, 3, size=size)
    traced = run.child_measure(name, 3, trace=True, size=size, iterations=2,
                               traced_iterations=2)
    assert plain["failures"] == [] and traced["failures"] == []
    for result, trace, declared in ((plain, False, "end_to_end"), (traced, True, "per_layer")):
        metrics = run._metrics(result, trace)
        assert {k: v["unit"] for k, v in metrics.items()} == {
            m["name"]: m["unit"] for m in SPEC[declared]
        }
        assert all(isinstance(v["value"], float) for v in metrics.values())
    assert all(plain[m] > 0 for m, _ in run.END_TO_END)
    assert plain["attempted"] >= 1 and plain["failed"] == 0
    assert plain["iterations"] == 2 and traced["traced_iterations"] == 2


@pytest.mark.parametrize("name", NAMES)
def test_traced_digest_equals_untraced_and_wrappers_are_restored(name):
    fn, size = _small(name)
    untraced = W.digest(fn(1, size).sim)
    before = {(id(o), a): _state(o, a) for o, a in _targets()}
    tracer = layers.Tracer(keep_spans=100)
    tracer.install()
    try:
        tracer.begin_iteration(0)
        traced = fn(1, size)
        tracer.end_iteration()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert W.digest(traced.sim) == untraced
    assert {(id(o), a): _state(o, a) for o, a in _targets()} == before
    # Functions imported by name elsewhere are back too.
    from repro.crypto import handshake
    from repro.disagg import cluster
    assert cluster.hkdf is handshake.hkdf and not hasattr(handshake.hkdf, "__wrapped__")


@pytest.mark.parametrize("name", NAMES)
def test_self_times_and_unwrapped_remainder_add_up_to_the_root_span(name):
    fn, size = _small(name)
    tracer = layers.Tracer()
    tracer.install()
    try:
        tracer.begin_iteration(0)
        fn(1, size)
        tracer.end_iteration()
    finally:
        tracer.uninstall()
    by_layer = tracer.layer_self_ns()
    assert sum(tracer.self_ns.values()) == tracer.root_ns
    assert sum(by_layer.values()) == tracer.root_ns
    assert by_layer[layers.BENCH_LAYER] == tracer.self_ns[layers.ROOT]
    metrics = tracer.metrics()
    timed = sum(metrics[f"{layer}.host_s"] for layer in layers.TIMED_LAYERS)
    assert timed + metrics["unwrapped.host_s"] == pytest.approx(tracer.root_ns / 1e9)


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_the_digest_and_repeats_exactly(name):
    fn, size = _small(name)
    first, again, other = (W.digest(fn(seed, size).sim) for seed in (1, 1, 2))
    assert first == again
    assert first != other


def test_a_missing_wrapper_target_is_reported_not_fatal():
    tracer = layers.Tracer()
    tracer.install(
        timed=[
            "repro.disagg.migration:MigrationSpeculator.lookup",
            "repro.disagg.migration:NoSuchSpeculator.lookup",
            "repro.parallel.speculate:LinkSpeculator.no_such_method",
            "repro.no_such_module:function",
        ],
        counted=(),
    )
    try:
        from repro.disagg.migration import MigrationSpeculator

        assert hasattr(vars(MigrationSpeculator)["lookup"], "__wrapped__")
        assert [target for target, _ in tracer.missing] == [
            "repro.disagg.migration:NoSuchSpeculator.lookup",
            "repro.parallel.speculate:LinkSpeculator.no_such_method",
            "repro.no_such_module:function",
        ]
    finally:
        tracer.uninstall()
    assert not hasattr(vars(MigrationSpeculator)["lookup"], "__wrapped__")


def test_a_failed_check_fails_every_request_of_the_run():
    def broken(seed, size):
        outcome = W.WORKLOADS["disagg"].run(seed, size)
        outcome.failures.append("forced")
        return outcome

    bench = run._Run("disagg")
    outcome, _ = bench.iterate(W.Workload("disagg", broken, None), 1,
                               W.SMALL_SIZES["disagg"], "seed 1")
    assert bench.failures == ["seed 1: forced"]
    assert bench.failed == bench.attempted == outcome.attempted


def test_compare_labels_pairs_by_the_bounds():
    import compare

    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    assert compare.judge(parent, faster, "lower", 0.1)[0] == "improved"
    assert compare.judge(parent, slower, "lower", 0.1)[0] == "regressed"
    assert compare.judge(parent, list(parent), "lower", 0.1)[0] == "unchanged"
    noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.4, 0.9, 1.2, 0.6, 1.1]
    assert compare.judge(noisy, [v * 1.05 for v in noisy], "lower", 0.1)[0] == "unresolved"


def _result_file(tmp_path, name, host_wall_s, failed=0, failures=()):
    workload = {"failed": failed, "failures": list(failures)}
    if host_wall_s is not None:
        workload["host_wall_s"] = host_wall_s
    path = tmp_path / name
    path.write_text(json.dumps({"workloads": {"disagg": workload}}))
    return str(path)


def _compare_files(tmp_path, parent, change, change_failed=0, change_failures=()):
    import compare

    spec = compare.load_spec()
    parents = [_result_file(tmp_path, f"p{i}.json", v) for i, v in enumerate(parent)]
    changes = [_result_file(tmp_path, f"c{i}.json", v, change_failed, change_failures)
               for i, v in enumerate(change)]
    rows = compare.compare(compare.load_results(parents, spec),
                           compare.load_results(changes, spec), spec)
    return {row["metric"]: row for row in rows}["host_wall_s"]


def test_compare_claims_no_gain_when_the_change_fails_more(tmp_path):
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    faster = [v * 0.8 for v in parent]
    for case in ("clean", "check", "operations"):
        (tmp_path / case).mkdir()
    assert _compare_files(tmp_path / "clean", parent, faster)["label"] == "improved"
    failing = _compare_files(tmp_path / "check", parent, faster,
                             change_failures=["seed 1: digest matches golden.json"])
    assert failing["label"] == "unresolved" and failing["change_failed_more"]
    more_failed = _compare_files(tmp_path / "operations", parent, faster, change_failed=3)
    assert more_failed["label"] == "unresolved"


def test_compare_pairs_runs_by_position_and_skips_incomplete_pairs(tmp_path):
    parent = [1.0] * 11
    change = [2.0] + [0.8] * 10
    parent[0] = None  # the parent's first run lost its metric
    row = _compare_files(tmp_path, parent, change)
    # Dropping only the parent's value would pair 2.0 with a parent 1.0.
    assert row["pairs"] == 10 and row["won"] == 1.0 and row["label"] == "improved"
