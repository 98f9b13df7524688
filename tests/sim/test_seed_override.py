"""Process-wide seed override: the CLI --seed plumbing."""

import pytest

from repro.sim import SeededRng, default_seed, set_default_seed


@pytest.fixture(autouse=True)
def clear_override():
    yield
    set_default_seed(None)


class TestSeedOverride:
    def test_fallback_without_override(self):
        assert default_seed(42) == 42

    def test_override_wins(self):
        set_default_seed(123)
        assert default_seed(42) == 123

    def test_clear_restores_fallback(self):
        set_default_seed(123)
        set_default_seed(None)
        assert default_seed(42) == 42

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            set_default_seed(-1)

    def test_override_changes_workload_streams(self):
        set_default_seed(7)
        a = SeededRng(default_seed(42)).random()
        set_default_seed(8)
        b = SeededRng(default_seed(42)).random()
        assert a != b


class TestCliSeedThreading:
    @pytest.mark.parametrize("outer", [None, 123])
    def test_cli_seed_does_not_leak_past_main(self, capsys, outer):
        """``--seed`` holds only for one call: the override in place
        before it (none, or one already installed) is back afterwards."""
        from repro.cli import main

        set_default_seed(outer)
        argv = ["cluster", "--replicas", "1", "--rate", "2", "--duration", "1",
                "--tenants", "1", "--seed", "7", "--json"]
        assert main(argv) == 0
        capsys.readouterr()
        assert default_seed(42) == (42 if outer is None else outer)

    def test_cluster_runs_reproducible_with_seed(self, capsys):
        import json

        from repro.cli import main

        argv = ["cluster", "--replicas", "1", "--rate", "2", "--duration", "2",
                "--tenants", "2", "--seed", "5", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        set_default_seed(None)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_cluster_seed_changes_run(self, capsys):
        import json

        from repro.cli import main

        base = ["cluster", "--replicas", "1", "--rate", "4", "--duration", "2",
                "--tenants", "2", "--json"]
        assert main(base + ["--seed", "5"]) == 0
        first = json.loads(capsys.readouterr().out)
        set_default_seed(None)
        assert main(base + ["--seed", "6"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first != second
