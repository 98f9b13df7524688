"""Wall-clock hygiene: no real time inside the simulated stack."""

from pathlib import Path

import repro
from tests.observatory.lint import ALLOWED_WALL_CLOCK_FILES, wall_clock_call_sites

SRC = Path(repro.__file__).parent


class TestRepoIsClean:
    def test_no_wall_clock_outside_cli_and_dashboard(self):
        """The satellite assertion: simulated code never reads real time."""
        assert wall_clock_call_sites(SRC) == []

    def test_allowlist_is_exactly_cli_and_dashboard(self):
        assert set(ALLOWED_WALL_CLOCK_FILES) == {
            "cli.py", "observatory/dashboard.py"
        }

    def test_serve_modules_are_scanned_and_clean(self):
        """The serving front end is simulated code: zero wall-clock reads."""
        serve = SRC / "serve"
        names = {p.name for p in serve.glob("*.py")}
        assert {"admission.py", "api.py", "frontend.py", "load.py"} <= names
        assert wall_clock_call_sites(serve, allowed=()) == []

    def test_allowed_files_do_use_wall_clock(self):
        """If the allowlist went stale the lint would silently weaken."""
        sites = wall_clock_call_sites(SRC, allowed=())
        flagged = {site.split(":")[0] for site in sites}
        # time.sleep pacing in the dashboard is not a *read*, so only
        # the CLI must show up — but nothing outside the allowlist may.
        assert "cli.py" in flagged
        assert flagged <= set(ALLOWED_WALL_CLOCK_FILES)


class TestDetection:
    def write(self, tmp_path, name, body):
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)
        return path

    def test_flags_time_time(self, tmp_path):
        self.write(tmp_path, "mod.py", "import time\nstart = time.time()\n")
        sites = wall_clock_call_sites(tmp_path)
        assert sites == ["mod.py:2 time.time()"]

    def test_flags_bare_monotonic_and_perf_counter(self, tmp_path):
        self.write(
            tmp_path, "mod.py",
            "from time import monotonic, perf_counter\n"
            "a = monotonic()\nb = perf_counter()\n",
        )
        sites = wall_clock_call_sites(tmp_path)
        assert [s.split(" ")[1] for s in sites] == ["monotonic()", "perf_counter()"]

    def test_ignores_simulated_time_attributes(self, tmp_path):
        self.write(
            tmp_path, "mod.py",
            "now = sim.now\nelapsed = machine.sim.now - start\n"
            "t = self.time\n",
        )
        assert wall_clock_call_sites(tmp_path) == []

    def test_respects_allowlist(self, tmp_path):
        self.write(tmp_path, "cli.py", "import time\nstart = time.time()\n")
        assert wall_clock_call_sites(tmp_path) == []
        assert wall_clock_call_sites(tmp_path, allowed=()) != []
