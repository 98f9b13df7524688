"""CLI tests (``python -m repro``)."""

import io

import pytest

from repro.bench import EXPERIMENTS
from repro.cli import main
from repro.cluster import Cluster
from repro.disagg import DisaggCluster


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestSystems:
    def test_describes_systems(self):
        code, text = run_cli("systems")
        assert code == 0
        for name in ("w/o CC", "CC-4t", "PipeLLM-0", "TEE-I/O"):
            assert name in text


class TestRun:
    def test_runs_fig2(self):
        code, text = run_cli("run", "fig2")
        assert code == 0
        assert "32MB" in text
        assert "throughput_gbps" in text

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("run", "fig99")

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("run", "fig2", "--scale", "huge")

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            run_cli()


class TestBenchCommand:
    """``repro bench`` over stub registry entries (no simulation)."""

    @pytest.fixture(autouse=True)
    def stubs(self, monkeypatch):
        from tests.observatory.test_continuous import stub_registry

        stub_registry(monkeypatch)

    def test_bench_writes_artifact_and_self_compares(self, tmp_path):
        import json

        first = tmp_path / "BENCH_0.json"
        code, text = run_cli("bench", "--out", str(first), "--dir", str(tmp_path))
        assert code == 0
        assert first.exists()
        assert "scale=quick seed=1 " in text
        assert "verdicts: cc=encryption-bound" in text
        wall = json.loads(first.read_text())["key_metrics"]["wall_clock_s"]
        assert f"wall={wall['value']:.1f}s" in text

        code, text = run_cli("bench", "--dir", str(tmp_path), "--compare")
        assert code == 0
        assert (tmp_path / "BENCH_1.json").exists()
        assert "0 regressions" in text

    def test_bench_candidate_compare_gates(self, tmp_path):
        import json

        code, _ = run_cli(
            "bench", "--out", str(tmp_path / "BENCH_0.json"),
            "--dir", str(tmp_path),
        )
        assert code == 0
        baseline = json.loads((tmp_path / "BENCH_0.json").read_text())
        baseline["key_metrics"]["pipellm_hit_rate"]["value"] *= 0.5
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(baseline))

        code, text = run_cli(
            "bench", "--candidate", str(worse), "--dir", str(tmp_path),
            "--compare", str(tmp_path / "BENCH_0.json"),
        )
        assert code == 1
        assert "pipellm_hit_rate" in text

        code, _ = run_cli(
            "bench", "--candidate", str(worse), "--dir", str(tmp_path),
            "--compare", str(tmp_path / "BENCH_0.json"), "--warn-only",
        )
        assert code == 0

    def test_bench_seed_and_scale_reach_the_artifact(self, tmp_path):
        import json

        out = tmp_path / "BENCH_0.json"
        code, _ = run_cli(
            "bench", "--seed", "5", "--scale", "full", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert (doc["seed"], doc["scale"]) == (5, "full")

    def test_bench_seed_default_stays_with_bench(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        assert parser.parse_args(["bench"]).seed == 1
        assert parser.parse_args(["run", "fig8"]).seed is None
        assert parser.parse_args(["trace", "fig8"]).seed is None

    def test_suite_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "--suite", "smoke")
        assert exc.value.code == 2
        assert "--suite" in capsys.readouterr().err


class TestDashCommand:
    def test_dash_json_summary(self):
        import json

        code, text = run_cli(
            "dash", "--json", "--requests", "4", "--interval-ms", "200",
        )
        assert code == 0
        summary = json.loads(text)
        assert summary["system"] == "PipeLLM"
        assert summary["verdict"] == "pcie-bound"


class TestServeCommand:
    def test_serve_registered_as_experiment(self):
        assert "serve" in EXPERIMENTS

    def test_single_run_summary(self):
        code, text = run_cli("serve", "--rate", "8", "--duration", "2")
        assert code == 0
        rows = dict(line.split(None, 1) for line in text.splitlines()
                    if line.startswith("  "))
        assert rows["admission"] == "slo"
        assert {"attainment", "p50_ttft_s", "p99_ttft_s"} <= set(rows)

    def test_single_run_json_ledger_closes(self):
        import json

        code, text = run_cli("serve", "--rate", "12", "--duration", "2", "--json")
        assert code == 0
        doc = json.loads(text)
        assert doc["completed"] + doc["shed"] == doc["offered"]
        assert doc["system"] == "pipellm"
        assert doc["trace"] == "sharegpt-serve"

    def test_trace_and_admission_flags(self):
        import json

        code, text = run_cli(
            "serve", "--rate", "8", "--duration", "2",
            "--trace", "alpaca", "--admission", "fifo", "--json",
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["trace"] == "alpaca-serve"
        assert doc["admission"] == "fifo"


class TestSingleRunLedgerCheck:
    @pytest.mark.parametrize("command, cls", [
        ("cluster", Cluster), ("disagg", DisaggCluster),
    ])
    def test_a_failing_check_fails_the_door(self, command, cls, monkeypatch):
        # The error escapes ``main``, so ``python -m repro`` exits 1.
        run = cls.run

        def leaky_run(self, *args, **kwargs):
            result = run(self, *args, **kwargs)
            result.auth_failures = 1
            return result

        monkeypatch.setattr(cls, "run", leaky_run)
        with pytest.raises(AssertionError, match=f"{command}: 1 auth failures"):
            run_cli(command, "--rate", "2", "--duration", "2", "--json")


class TestOneDoorPerRun:
    @pytest.mark.parametrize("command", ["faults", "parallel"])
    def test_campaign_commands_are_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(command)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_serve_without_rate_is_one_run_at_4_rps(self):
        import json

        code, text = run_cli("serve", "--duration", "2", "--json")
        assert code == 0
        assert json.loads(text)["rate_rps"] == 4.0

    def test_disagg_hw_pack_is_one_run(self):
        import json

        code, text = run_cli("disagg", "--hw-pack", "cpu-tee", "--json")
        assert code == 0
        doc = json.loads(text)
        assert doc["completed"] + doc["shed"] == doc["offered"] > 0


class TestSingleRunOptions:
    @pytest.mark.parametrize("argv", [
        ("cluster", "--replicas", "0"),
        ("cluster", "--tenants", "0"),
        ("serve", "--rate", "4", "--tenants", "0"),
        ("disagg", "--rate", "4", "--prefill", "0", "--fail-at", "1",
         "--fail-kind", "prefill"),
    ])
    def test_invalid_option_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "repro: error:" in capsys.readouterr().err


class TestTraceAttrib:
    def test_waterfall_for_request(self):
        code, text = run_cli("trace", "fig2", "--attrib", "0")
        assert code == 0
        assert "critical-path profile" in text
        assert "request 0" in text
        assert "= wire latency" in text

    def test_profiles_only_when_negative(self):
        code, text = run_cli("trace", "fig2", "--attrib", "-1")
        assert code == 0
        assert "critical-path profile" in text
        assert "request " not in text

    def test_negative_max_events_rejected_at_parse_time(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("trace", "fig2", "--max-events", "-1")
        assert exc.value.code == 2

    def test_speculation_is_priced_at_the_machines_aes_rate(self):
        code, text = run_cli("trace", "attrib", "--attrib", "-1")
        assert code == 0
        pipellm = text[text.index("critical-path profile: PipeLLM "):]
        spec = next(line for line in pipellm.splitlines() if "speculation:" in line)
        saved_ms = float(spec.split("saved ")[1].split(" ms")[0])
        assert saved_ms > 0, spec

    def test_missing_request_id_fails(self):
        code, text = run_cli("trace", "fig2", "--attrib", "999999")
        assert code == 1
        assert "not found" in text
