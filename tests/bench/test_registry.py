"""The experiment registry (``repro.bench.EXPERIMENTS``) and its readers.

The CLI, the claims gate and the EXPERIMENTS.md generator all read the
one registry; these checks catch a reader and the registry drifting
apart without running any experiment.
"""

import importlib.util
import io
from pathlib import Path

from repro.bench import EXPERIMENTS
from repro.bench.claims import CLAIMS
from repro.cli import main

GENERATOR = Path(__file__).resolve().parents[2] / "scripts" / "generate_experiments.py"


def load_generator():
    spec = importlib.util.spec_from_file_location("generate_experiments", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_claim_names_a_registered_experiment():
    for claim in CLAIMS:
        assert claim.experiment in EXPERIMENTS, claim.claim_id


def test_generator_commentary_matches_registry():
    assert list(load_generator().COMMENTARY) == list(EXPERIMENTS)


def test_list_prints_ids_in_registry_order():
    out = io.StringIO()
    assert main(["list"], out=out) == 0
    assert [line.split()[0] for line in out.getvalue().splitlines()] == list(EXPERIMENTS)


def test_paper_figures_registered():
    for figure in ("fig2", "fig3a", "fig3b", "fig3c", "fig7", "fig8", "fig9", "fig10"):
        assert figure in EXPERIMENTS
