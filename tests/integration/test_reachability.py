"""The reachability probe (``scripts/reachability.py``) on one small target.

The probe runs in a subprocess: it installs its own ``sys.settrace``
hook, which must not displace a coverage tracer in this process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SCRIPT = ROOT / "scripts" / "reachability.py"


def run_probe():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--only", "example:quickstart", "--json"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout


@pytest.fixture(scope="module")
def reports():
    return run_probe(), run_probe()


def test_schema(reports):
    report = json.loads(reports[0])
    assert report["schema"] == "repro.reachability/v1"
    assert report["targets"] == ["example:quickstart"]
    assert report["functions"] == len(report["reached"]) + len(report["unreached"])
    assert report["unreached_lines"] == sum(f["lines"] for f in report["unreached"])
    for entry in report["unreached"]:
        assert set(entry) == {"file", "line", "lines", "module", "qualname", "refs"}
        assert all(ref.startswith("src/repro/") for ref in entry["refs"])
        assert entry["file"].startswith("src/repro/") and entry["file"].endswith(".py")
        assert entry["line"] >= 1 and entry["lines"] >= 1
        assert entry["module"].startswith("repro")


def test_simulator_run_is_reached(reports):
    report = json.loads(reports[0])
    assert "repro.sim.core:Simulator.run" in report["reached"]
    unreached = {f"{f['module']}:{f['qualname']}" for f in report["unreached"]}
    assert "repro.sim.core:Simulator.run" not in unreached
    # The quickstart never touches the serving front end, but the CLI
    # names it: refs flag an unreached function that still has callers.
    assert "repro.serve.frontend:run_serve" in unreached
    (entry,) = [f for f in report["unreached"] if f["qualname"] == "run_serve"
                and f["module"] == "repro.serve.frontend"]
    assert any(ref.startswith("src/repro/cli.py:") for ref in entry["refs"])


def test_reports_are_identical(reports):
    assert reports[0] == reports[1]
