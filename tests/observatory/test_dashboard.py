"""Dashboard: panel content and render-on/off non-perturbation."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.bench.experiments import run_flexgen
from repro.bench.systems import CC, pipellm
from repro.cc import CcMode, build_machine
from repro.cluster import Cluster
from repro.core import ClusterConfig
from repro.models import OPT_66B
from repro.observatory.dashboard import Dashboard, run_flexgen_dashboard
from repro.serve import LoadSpec, ServeFrontend, generate_load
from repro.telemetry import recording
from repro.workloads import SyntheticShape


def run(render, **kw):
    kw.setdefault("system", pipellm(8, 2))
    kw.setdefault("n_requests", 6)
    kw.setdefault("interval_s", 0.2)
    kw.setdefault("seed", 5)
    return run_flexgen_dashboard(render=render, **kw)


class TestNonPerturbation:
    def test_summary_identical_with_and_without_rendering(self):
        """Observing the simulation must not change it (same seed)."""
        rendered = run(render=True)
        blind = run(render=False)
        assert rendered.summary == blind.summary
        assert rendered.frames and blind.frames == []

    def test_rendering_twice_is_stable(self):
        assert run(render=True).summary == run(render=True).summary


class TestPanels:
    def test_frame_has_every_required_panel(self):
        frames = run(render=True).frames
        last = frames[-1]
        assert "utilization" in last
        assert "crypto-engine" in last and "pcie" in last and "gpu" in last
        assert "wire latency" in last
        assert "p50" in last and "p95" in last and "p99" in last
        assert "speculation" in last and "hit-rate" in last
        assert "pipeline mode SPECULATIVE" in last
        assert "iv audit" in last and "aligned" in last
        assert "critical path:" in last

    def test_cc_baseline_reaches_encryption_bound(self):
        result = run(render=True, system=CC)
        assert result.summary["verdict"] == "encryption-bound"
        assert "critical path: encryption-bound" in result.frames[-1]

    def test_summary_fields(self):
        summary = run(render=False).summary
        for key in (
            "system", "throughput_tok_s", "verdict", "requests_profiled",
            "speculation_hit_rate", "final_sim_time_s",
        ):
            assert key in summary
        assert summary["system"] == "PipeLLM"
        assert summary["requests_profiled"] > 0
        assert 0.0 < summary["speculation_hit_rate"] <= 1.0

    def test_frame_carries_the_telemetry_panel(self):
        last = run(render=True).frames[-1]
        assert "telemetry" in last
        assert "ring-dropped" in last
        assert "lanes:" in last
        # Lane counts come from the typed event stream; a PipeLLM run
        # always speculates, so that lane must be populated.
        lanes_line = next(l for l in last.splitlines() if "lanes:" in l)
        assert "speculation=" in lanes_line

    def test_sink_receives_frames(self):
        received = []
        result = run(render=True, sink=received.append)
        # The sink gets every loop frame plus one final frame.
        assert len(received) == len(result.frames) + 1


def _python(*args):
    """Run a fresh interpreter on ``args``; a hang fails on the timeout."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=60,
    )


class TestFramePeriod:
    @pytest.mark.parametrize("fn", ["run_flexgen_dashboard", "run_serve_dashboard"])
    def test_zero_interval_rejected(self, fn):
        done = _python("-c", (
            f"from repro.observatory.dashboard import {fn}\n"
            f"try:\n    {fn}(interval_s=0.0, render=False)\n"
            "except ValueError as exc:\n    print('rejected:', exc)\n"
        ))
        assert done.returncode == 0, done.stderr
        assert "rejected: interval_s must be > 0" in done.stdout

    def test_cli_rejects_non_positive_interval_at_parse_time(self):
        done = _python("-m", "repro", "dash", "--json", "--interval-ms", "0")
        assert done.returncode == 2
        assert "--interval-ms" in done.stderr


def utilization_rows(frame):
    """``{resource: fraction}`` from a frame's utilization panel."""
    lines = frame.splitlines()
    rows = {}
    for line in lines[lines.index("utilization") + 1:]:
        if not line:
            break
        rows[line[2:16].strip()] = float(line.split()[-1].rstrip("%")) / 100
    return rows


def quantile_row(frame, label):
    """``(p50, p95, p99)`` of the ``label`` percentile row."""
    line = next(l for l in frame.splitlines() if l.startswith(f"  {label}  p50"))
    fields = line.split()
    return tuple(float(fields[i]) for i in (2, 5, 8))


class TestMachinePanels:
    def run_frame(self, system):
        with recording():
            _, runtime = run_flexgen(
                system, OPT_66B, SyntheticShape(32, 4), batch_size=8, n_requests=8
            )
            return runtime, Dashboard(runtime.machine, runtime=runtime).frame()

    def test_cc_machine_frame_shows_stack_metrics(self):
        runtime, frame = self.run_frame(CC)
        resources = utilization_rows(frame)
        assert set(resources) >= {"pcie", "crypto-engine", "gpu"}
        assert list(resources) == sorted(resources)
        assert all(0.0 <= v <= 1.0 for v in resources.values())
        assert resources["crypto-engine"] > 0.0
        p50, p95, p99 = quantile_row(frame, "h2d")
        assert 0.0 < p50 <= p95 <= p99
        wire = runtime.machine.metrics.latencies["telemetry.h2d_wire_s"]
        assert f"p99 {wire.p(99) * 1e6:9.1f} us" in frame

    def test_pipellm_machine_frame_shows_speculation(self):
        runtime, frame = self.run_frame(pipellm(8, 2))
        hit_line = next(l for l in frame.splitlines() if "hit-rate" in l)
        assert 0.0 < float(hit_line.split()[-1].rstrip("%")) <= 100.0
        assert "pipeline mode SPECULATIVE" in frame
        nops = runtime.machine.metrics.counters["runtime.nops_sent"].value
        assert f"  nops {nops}   " in frame

    @pytest.mark.parametrize(
        "mode", [CcMode.DISABLED, CcMode.ENABLED], ids=lambda m: m.name.lower()
    )
    def test_multi_gpu_frame_shows_fabric_pipes(self, mode):
        """Every interconnect pipe gets a utilization row (this keeps
        ``Interconnect.pipes()`` reachable from the dashboard)."""
        machine = build_machine(mode, n_gpus=2)
        machine.interconnect.transfer(0, 1, b"activations", nbytes=1 << 20)
        machine.run()
        resources = utilization_rows(Dashboard(machine).frame())
        fabric = [v for r, v in resources.items() if r.startswith("link.")]
        assert fabric and any(v > 0.0 for v in fabric)
        assert all(0.0 <= v <= 1.0 for v in fabric)

    def test_no_utilization_rows_before_time_advances(self):
        frame = Dashboard(build_machine(CcMode.ENABLED)).frame()
        assert utilization_rows(frame) == {}


class TestServeDashboard:
    def run_serve(self, render, **kw):
        from repro.observatory.dashboard import run_serve_dashboard

        kw.setdefault("rate", 10.0)
        kw.setdefault("duration", 2.0)
        kw.setdefault("interval_s", 0.25)
        kw.setdefault("seed", 5)
        return run_serve_dashboard(render=render, **kw)

    def test_rendering_does_not_perturb_the_run(self):
        rendered = self.run_serve(render=True)
        blind = self.run_serve(render=False)
        assert rendered.summary == blind.summary
        assert rendered.frames and blind.frames == []

    def test_frame_carries_the_serving_panel(self):
        last = self.run_serve(render=True).frames[-1]
        assert "serving (TTFT / TPOT)" in last
        assert "ttft" in last and "tpot" in last
        assert "completed" in last and "shed" in last

    def run_gateway(self):
        cluster = Cluster(ClusterConfig(
            replicas=2, system="pipellm", policy="least-loaded",
            reserve_bytes=55 << 30, max_outstanding=12,
        ))
        frontend = ServeFrontend(cluster)
        requests = generate_load(LoadSpec(rate=10.0, duration=3.0))
        result = frontend.run(requests, duration=3.0)
        replica = cluster.replicas[0]
        frame = Dashboard(
            replica.machine, runtime=replica.runtime, gateway=cluster.gateway,
        ).frame()
        return cluster, result, frame

    def test_serving_panel_reads_ttft_tpot_quantiles(self):
        cluster, _, frame = self.run_gateway()
        for metric in ("ttft", "tpot"):
            p50, p95, p99 = quantile_row(frame, metric)
            assert 0.0 < p50 <= p95 <= p99
        ttft = cluster.gateway.metrics.latencies["serve.ttft_s"]
        assert f"p99 {ttft.p(99) * 1e3:8.2f} ms" in frame

    def test_serving_panel_reads_gateway_counters(self):
        _, result, frame = self.run_gateway()
        assert f"  completed {result.completed}   " in frame

    def test_no_serving_panel_before_a_latency_sample(self):
        cluster = Cluster(ClusterConfig(replicas=1, system="pipellm"))
        replica = cluster.replicas[0]
        frame = Dashboard(replica.machine, gateway=cluster.gateway).frame()
        assert "serving (TTFT / TPOT)" not in frame

    def test_summary_closes_the_ledger(self):
        summary = self.run_serve(render=False).summary
        assert summary["completed"] + summary["shed"] == summary["offered"]
        assert summary["final_sim_time_s"] > 0.0
        assert summary["rate_rps"] == 10.0
