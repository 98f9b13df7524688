"""Deterministic replay: same ``--seed`` ⇒ bit-identical results.

Every claim number, benchmark row, cluster summary, and telemetry
event stream must be a pure function of (code, seed). These tests run
the same CLI invocation twice in one process and demand byte-identical
output — any hidden dependence on wall-clock, dict iteration order, or
cross-run RNG leakage shows up as a diff.
"""

import io

import pytest

from repro.cli import main
from repro.crypto import backend
from repro.hw import engine
from repro.sim import Simulator, set_default_seed

from ..sim.test_queue_equivalence import GeneratorWorkerPool, HeapSimulator


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture(autouse=True)
def _reset_seed():
    # ``--seed`` overrides process-wide state; never leak it into
    # other tests.
    yield
    set_default_seed(None)


def twice(*argv):
    code1, text1 = run_cli(*argv)
    code2, text2 = run_cli(*argv)
    assert code1 == code2 == 0
    return text1, text2


class TestReplay:
    def test_run_bench_replays_identically(self):
        first, second = twice("run", "fig2", "--json", "--seed", "11")
        assert first == second

    def test_cluster_replays_identically(self):
        first, second = twice(
            "cluster", "--replicas", "2", "--rate", "20", "--duration", "0.5",
            "--tenants", "2", "--seed", "5", "--json",
        )
        assert first == second

    def test_fault_campaign_replays_identically(self):
        first, second = twice("run", "faults", "--seed", "7", "--json")
        assert first == second

    @pytest.mark.slow
    def test_parallel_campaign_replays_identically(self):
        first, second = twice("run", "parallel", "--seed", "13", "--json")
        assert first == second

    def test_serve_replays_identically(self):
        first, second = twice(
            "serve", "--rate", "12", "--duration", "2", "--seed", "21", "--json",
        )
        assert first == second

    def test_disagg_replays_identically(self):
        first, second = twice(
            "disagg", "--rate", "6", "--duration", "1.5", "--seed", "9",
            "--json",
        )
        assert first == second

    def test_disagg_hw_pack_replays_identically(self):
        first, second = twice(
            "disagg", "--hw-pack", "b300-cc", "--rate", "4", "--duration",
            "1.5", "--seed", "9", "--json",
        )
        assert first == second

    def test_serve_seed_changes_the_run(self):
        _, first = run_cli("serve", "--rate", "12", "--duration", "2",
                           "--seed", "21", "--json")
        set_default_seed(None)
        _, second = run_cli("serve", "--rate", "12", "--duration", "2",
                            "--seed", "22", "--json")
        assert first != second

    def test_telemetry_event_stream_replays_identically(self):
        # The full Chrome trace — every event, timestamp, and lane —
        # must replay, not just the aggregate rows.
        first, second = twice("trace", "fig2", "--format", "chrome",
                              "--seed", "3")
        assert first == second
        assert '"traceEvents"' in first

    def test_different_seeds_actually_differ(self):
        # Guard against the trivial pass where the seed is ignored.
        _, first = run_cli("cluster", "--replicas", "2", "--rate", "20",
                           "--duration", "0.5", "--seed", "5", "--json")
        set_default_seed(None)
        _, second = run_cli("cluster", "--replicas", "2", "--rate", "20",
                            "--duration", "0.5", "--seed", "6", "--json")
        assert first != second


class TestOracleReplay:
    """The kernel, crypto pools and cipher ≡ their oracles, end to end
    through the CLI.

    The oracle run patches the single-heap event loop onto
    :class:`Simulator` (which never fast-forwards the DMA staging
    ring, so every staged piece takes its slot hop and memcpy timer),
    builds the crypto engine's pools from the
    generator worker pool (per-slice jobs joined by ``all_of``, never a
    gang) and forces the pure-Python AES-GCM backend; every
    simulated quantity any subcommand prints must nevertheless be
    byte-identical to the default run at the same seed.
    """

    @pytest.fixture(autouse=True)
    def _monkeypatch(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def patch_in_oracles(self):
        for name in ("_schedule", "_schedule_callback", "_dispatch", "_advance_inline", "run"):
            self.monkeypatch.setattr(Simulator, name, getattr(HeapSimulator, name))
        self.monkeypatch.setattr(engine, "WorkerPool", GeneratorWorkerPool)
        # A fresh GCM cache, so no instance built by the default run
        # (under an accelerated backend) is handed out again.
        self.monkeypatch.setattr(backend, "_gcm_cache", type(backend._gcm_cache)())
        self.monkeypatch.setattr(backend, "AUTO_ORDER", ("reference",))
        assert backend.resolve_backend() == "reference"

    def against_oracles(self, *argv):
        set_default_seed(None)
        code1, default = run_cli(*argv)
        self.patch_in_oracles()
        set_default_seed(None)
        code2, oracle = run_cli(*argv)
        assert code1 == code2 == 0
        return default, oracle

    def test_run_fig2(self):
        default, oracle = self.against_oracles("run", "fig2", "--json", "--seed", "11")
        assert default == oracle

    def test_cluster(self):
        default, oracle = self.against_oracles(
            "cluster", "--replicas", "2", "--rate", "20", "--duration", "0.5",
            "--tenants", "2", "--seed", "5", "--json",
        )
        assert default == oracle

    def test_faults(self):
        default, oracle = self.against_oracles("run", "faults", "--seed", "7", "--json")
        assert default == oracle

    @pytest.mark.slow
    def test_parallel(self):
        default, oracle = self.against_oracles("run", "parallel", "--seed", "13", "--json")
        assert default == oracle

    def test_serve(self):
        default, oracle = self.against_oracles(
            "serve", "--rate", "12", "--duration", "2", "--seed", "21", "--json",
        )
        assert default == oracle

    def test_disagg(self):
        default, oracle = self.against_oracles(
            "disagg", "--rate", "6", "--duration", "1.5", "--seed", "9",
            "--json",
        )
        assert default == oracle

    def test_trace_event_stream(self):
        # Not just aggregates: every telemetry event and timestamp.
        default, oracle = self.against_oracles(
            "trace", "fig2", "--format", "chrome", "--seed", "3"
        )
        assert default == oracle
