"""Continuous bench harness: artifacts, projection, regression gate.

No test here runs a simulation. The registry entries are stubs that
replay the tables ``BENCH_1.json`` stored, so the harness mechanics run
over the same rows the committed baseline was projected from. That the
stored rows are what ``repro run <id>`` prints is the artifact's
contract; ``scripts/digests.py --check`` holds the registry outputs.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.bench import EXPERIMENTS, continuous
from repro.bench.continuous import (
    BENCH_SCHEMA_VERSION,
    KEY_METRICS,
    VERDICTS,
    artifact_index,
    compare_artifacts,
    find_latest_artifact,
    load_artifact,
    next_artifact_path,
    project,
    render_comparison,
    run_suite,
)
from repro.bench.tables import ExperimentResult
from repro.sim import default_seed, set_default_seed

BENCH_1 = Path(__file__).resolve().parents[2] / "BENCH_1.json"


def stored_results(artifact):
    """The artifact's stored tables, as the experiment results they were."""
    return {
        name: ExperimentResult(**table)
        for name, table in artifact["experiments"].items()
    }


def stub_registry(monkeypatch, calls=None):
    """Replace the registry with entries that replay BENCH_1's tables,
    plus one entry no metric reads; ``calls`` records (id, scale)."""
    tables = load_artifact(BENCH_1)["experiments"]

    def entry(name):
        def run(scale):
            if calls is not None:
                calls.append((name, scale))
            return ExperimentResult(**copy.deepcopy(tables[name]))
        return run

    registry = {name: entry(name) for name in EXPERIMENTS if name in tables}
    registry["unreferenced"] = entry("never-read")
    monkeypatch.setattr(continuous, "EXPERIMENTS", registry)


@pytest.fixture
def smoke_artifact(monkeypatch):
    stub_registry(monkeypatch)
    previous = set_default_seed(3)
    try:
        return run_suite("quick")
    finally:
        set_default_seed(previous)


def gated(key_metrics):
    return {k: v for k, v in key_metrics.items() if v.get("level") != "warn"}


class TestProjection:
    def test_bench_1_reprojects_to_its_key_metrics(self):
        # Every selector, against the rows it was projected from.
        artifact = load_artifact(BENCH_1)
        key_metrics, verdicts = project(stored_results(artifact))
        assert key_metrics == gated(artifact["key_metrics"])
        assert verdicts == artifact["verdicts"]

    def test_every_row_names_a_registry_experiment(self):
        for row in KEY_METRICS + VERDICTS:
            assert row[1] in EXPERIMENTS, row

    def test_metric_names_are_unique(self):
        names = [row[0] for row in KEY_METRICS]
        assert len(names) == len(set(names))
        assert "pipellm_speedup_over_cc" not in names

    def test_bench_1_gates_fig8(self):
        metrics = load_artifact(BENCH_1)["key_metrics"]
        assert metrics["fig8_pipellm_norm_latency_s_tok"]["higher_is_better"] is False

    def test_missing_row_is_an_error(self):
        artifact = load_artifact(BENCH_1)
        results = stored_results(artifact)
        results["fig2"].rows = [
            r for r in results["fig2"].rows if r["size"] != "32MB"
        ]
        with pytest.raises(KeyError):
            project(results)


class TestRunSuite:
    def test_runs_each_referenced_experiment_once_in_registry_order(
        self, monkeypatch
    ):
        calls = []
        stub_registry(monkeypatch, calls)
        run_suite("full")
        referenced = {row[1] for row in KEY_METRICS + VERDICTS}
        assert calls == [
            (name, "full") for name in EXPERIMENTS if name in referenced
        ]

    def test_stores_every_entry_table(self, smoke_artifact):
        assert smoke_artifact["experiments"] == load_artifact(BENCH_1)["experiments"]

    def test_leaves_the_seed_override_alone(self, monkeypatch):
        stub_registry(monkeypatch)
        previous = set_default_seed(None)
        try:
            assert run_suite()["seed"] is None
            assert default_seed(11) == 11
        finally:
            set_default_seed(previous)


class TestArtifactSchema:
    def test_required_fields(self, smoke_artifact):
        a = smoke_artifact
        assert a["schema_version"] == BENCH_SCHEMA_VERSION
        assert a["scale"] == "quick" and a["seed"] == 3
        assert set(a["verdicts"]) == {"offload-cc", "offload-pipellm"}
        for metric in a["key_metrics"].values():
            assert {"value", "higher_is_better"} <= set(metric)
            assert set(metric) <= {"value", "higher_is_better", "level"}
            assert isinstance(metric["value"], float)
            assert isinstance(metric["higher_is_better"], bool)
        assert set(a) == {
            "schema_version", "scale", "seed", "verdicts", "key_metrics",
            "experiments",
        }

    def test_wall_clock_key_metric_requires_a_clock(self, smoke_artifact):
        # The fixture runs without a clock: no wall-clock key metric,
        # and every remaining entry is a gated simulated quantity.
        assert smoke_artifact["key_metrics"] == gated(smoke_artifact["key_metrics"])
        ticks = iter(range(100))
        timed = run_suite(clock=lambda: float(next(ticks)))
        walls = {
            name: metric for name, metric in timed["key_metrics"].items()
            if name.startswith("wall_clock_s")
        }
        assert set(walls) == {"wall_clock_s"} | {
            f"wall_clock_s.{name}" for name in timed["experiments"]
        }
        for metric in walls.values():
            assert metric["level"] == "warn"
            assert metric["higher_is_better"] is False
            assert metric["value"] > 0.0
        per_entry = sum(
            m["value"] for name, m in walls.items() if name != "wall_clock_s"
        )
        assert walls["wall_clock_s"]["value"] > per_entry

    def test_verdicts_match_paper_regimes(self, smoke_artifact):
        assert smoke_artifact["verdicts"]["offload-cc"] == "encryption-bound"
        assert smoke_artifact["verdicts"]["offload-pipellm"] != "encryption-bound"

    def test_serve_campaign_present_with_closed_ledger(self, smoke_artifact):
        serve = smoke_artifact["experiments"]["serve"]
        assert serve["rows"]
        for run in serve["rows"]:
            assert run["completed"] + run["shed"] == run["offered"]
            assert 0.0 <= run["attainment"] <= 1.0
        assert {
            "serve_pipellm_goodput_rps",
            "serve_pipellm_attainment",
            "serve_pipellm_p99_ttft_s",
            "serve_cc_goodput_rps",
        } <= set(smoke_artifact["key_metrics"])

    def test_artifact_is_json_serialisable(self, smoke_artifact, tmp_path):
        path = tmp_path / "BENCH_0.json"
        path.write_text(json.dumps(smoke_artifact, indent=2, sort_keys=True))
        assert load_artifact(path) == smoke_artifact

    def test_wrong_schema_version_rejected(self, smoke_artifact, tmp_path):
        bad = dict(smoke_artifact, schema_version=BENCH_SCHEMA_VERSION + 1)
        path = tmp_path / "BENCH_9.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError):
            load_artifact(path)


class TestDeterminism:
    def test_same_seed_zero_regression(self, smoke_artifact):
        again = run_suite("quick")
        diff = compare_artifacts(smoke_artifact, again)
        assert diff["regressions"] == []
        assert diff["improvements"] == []
        assert len(diff["unchanged"]) == len(smoke_artifact["key_metrics"])
        for entry in diff["unchanged"]:
            assert entry["change"] == 0.0


class TestComparator:
    def perturb(self, artifact, metric, factor):
        mutated = copy.deepcopy(artifact)
        mutated["key_metrics"][metric]["value"] *= factor
        return mutated

    def test_higher_is_better_drop_is_regression(self, smoke_artifact):
        worse = self.perturb(
            smoke_artifact, "offload_pipellm_throughput_tok_s", 0.9
        )
        diff = compare_artifacts(smoke_artifact, worse)
        assert [r["metric"] for r in diff["regressions"]] == [
            "offload_pipellm_throughput_tok_s"
        ]

    def test_lower_is_better_rise_is_regression(self, smoke_artifact):
        worse = self.perturb(smoke_artifact, "pipellm_p99_wire_ms", 1.1)
        diff = compare_artifacts(smoke_artifact, worse)
        assert [r["metric"] for r in diff["regressions"]] == ["pipellm_p99_wire_ms"]

    def test_within_tolerance_is_not_regression(self, smoke_artifact):
        slightly = self.perturb(
            smoke_artifact, "offload_pipellm_throughput_tok_s", 0.97
        )
        diff = compare_artifacts(smoke_artifact, slightly, tolerance=0.05)
        assert diff["regressions"] == []

    def test_improvement_is_reported_not_gated(self, smoke_artifact):
        better = self.perturb(
            smoke_artifact, "offload_pipellm_throughput_tok_s", 1.2
        )
        diff = compare_artifacts(smoke_artifact, better)
        assert diff["regressions"] == []
        assert [r["metric"] for r in diff["improvements"]] == [
            "offload_pipellm_throughput_tok_s"
        ]

    def test_verdict_flip_is_a_regression(self, smoke_artifact):
        flipped = copy.deepcopy(smoke_artifact)
        flipped["verdicts"]["offload-pipellm"] = "encryption-bound"
        diff = compare_artifacts(smoke_artifact, flipped)
        assert any(
            r["metric"] == "verdict:offload-pipellm" for r in diff["regressions"]
        )

    def test_render_comparison_mentions_every_regression(self, smoke_artifact):
        worse = self.perturb(smoke_artifact, "pipellm_hit_rate", 0.5)
        text = render_comparison(compare_artifacts(smoke_artifact, worse))
        assert "pipellm_hit_rate" in text
        assert "1 regressions" in text

    def test_wall_clock_never_gated(self, smoke_artifact):
        base = copy.deepcopy(smoke_artifact)
        base["key_metrics"]["wall_clock_s.fig8"] = {
            "value": 1.0, "higher_is_better": False, "level": "warn",
        }
        slow = copy.deepcopy(base)
        slow["key_metrics"]["wall_clock_s.fig8"]["value"] = 1e6
        diff = compare_artifacts(base, slow)
        assert diff["regressions"] == []
        assert [w["metric"] for w in diff["warnings"]] == ["wall_clock_s.fig8"]

    def test_warn_level_metric_warns_instead_of_regressing(self, smoke_artifact):
        base = copy.deepcopy(smoke_artifact)
        base["key_metrics"]["wall_clock_s"] = {
            "value": 10.0, "higher_is_better": False, "level": "warn",
        }
        slow = copy.deepcopy(base)
        slow["key_metrics"]["wall_clock_s"]["value"] = 100.0
        diff = compare_artifacts(base, slow)
        assert diff["regressions"] == []
        assert [w["metric"] for w in diff["warnings"]] == ["wall_clock_s"]
        # Beyond-tolerance movement in the *good* direction is also
        # only a warning — wall time is noise, not a gated win.
        fastr = copy.deepcopy(base)
        fastr["key_metrics"]["wall_clock_s"]["value"] = 1.0
        diff = compare_artifacts(base, fastr)
        assert diff["improvements"] == []
        assert [w["metric"] for w in diff["warnings"]] == ["wall_clock_s"]
        assert "warnings" in render_comparison(diff)
        assert "WARN" in render_comparison(diff)

    def test_warn_level_respected_from_either_side(self, smoke_artifact):
        # A baseline artifact written before wall-clock tracking has
        # no level tag; the candidate's tag alone must de-gate it.
        base = copy.deepcopy(smoke_artifact)
        base["key_metrics"]["wall_clock_s"] = {
            "value": 10.0, "higher_is_better": False,
        }
        cand = copy.deepcopy(base)
        cand["key_metrics"]["wall_clock_s"] = {
            "value": 100.0, "higher_is_better": False, "level": "warn",
        }
        diff = compare_artifacts(base, cand)
        assert diff["regressions"] == []
        assert [w["metric"] for w in diff["warnings"]] == ["wall_clock_s"]

    def test_bench_1_against_bench_0_keeps_both_verdicts(self):
        baseline = load_artifact(BENCH_1.with_name("BENCH_0.json"))
        diff = compare_artifacts(baseline, load_artifact(BENCH_1))
        assert diff["regressions"] == []
        assert load_artifact(BENCH_1)["verdicts"] == baseline["verdicts"]


class TestArtifactNumbering:
    def test_next_and_latest(self, tmp_path):
        assert find_latest_artifact(tmp_path) is None
        assert next_artifact_path(tmp_path).name == "BENCH_0.json"
        (tmp_path / "BENCH_0.json").write_text("{}")
        (tmp_path / "BENCH_2.json").write_text("{}")
        (tmp_path / "not-an-artifact.json").write_text("{}")
        assert next_artifact_path(tmp_path).name == "BENCH_3.json"
        assert find_latest_artifact(tmp_path).name == "BENCH_2.json"
        assert find_latest_artifact(tmp_path, below=2).name == "BENCH_0.json"
        assert artifact_index(Path("BENCH_17.json")) == 17
