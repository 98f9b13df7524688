"""Claims-registry tests (the reproduction scorecard)."""

import pytest

from repro.bench import EXPERIMENTS
from repro.bench import claims as claims_module
from repro.bench.claims import CLAIMS, Claim, ClaimOutcome, render_outcomes, verify_claims
from repro.bench.tables import ExperimentResult


class TestRegistry:
    def test_every_eval_figure_claimed(self):
        experiments = {claim.experiment for claim in CLAIMS}
        for name in (
            "fig2", "fig3a", "fig3b", "fig3c", "fig7", "fig8", "fig9", "fig10",
            "abl-threads", "abl-asyncdec", "abl-leeway", "abl-kvdepth",
            "ext-teeio", "ext-layerwise",
        ):
            assert name in experiments

    def test_ids_unique(self):
        ids = [claim.claim_id for claim in CLAIMS]
        assert len(ids) == len(set(ids))

    def test_statements_cite_paper_values(self):
        for claim in CLAIMS:
            assert claim.paper_value


class TestVerifyClaims:
    def test_each_experiment_runs_once(self, monkeypatch):
        calls = []

        def fake(name):
            def experiment(scale):
                calls.append((name, scale))
                return ExperimentResult(name, name, columns=["x"])
            return experiment

        monkeypatch.setitem(EXPERIMENTS, "first", fake("first"))
        monkeypatch.setitem(EXPERIMENTS, "second", fake("second"))
        checks = [(True, "ok"), (False, "bad"), (True, "ok")]
        monkeypatch.setattr(claims_module, "CLAIMS", [
            Claim(f"c{i}", "s", "p", experiment, lambda _, out=out: out)
            for i, (experiment, out) in enumerate(zip(("first", "second", "first"), checks))
        ])
        outcomes = verify_claims("quick")
        assert sorted(calls) == [("first", "quick"), ("second", "quick")]
        assert [o.passed for o in outcomes] == [True, False, True]

    def test_as_dict_keys(self):
        outcome = ClaimOutcome(CLAIMS[0], False, "m")
        assert outcome.as_dict() == {
            "claim_id": CLAIMS[0].claim_id,
            "statement": CLAIMS[0].statement,
            "paper_value": CLAIMS[0].paper_value,
            "measured": "m",
            "passed": False,
        }


class TestVerification:
    @pytest.fixture(scope="class")
    def outcomes(self):
        # The cheapest claims subset: run the fig2-based claim only by
        # filtering; the full scorecard runs as `python -m repro claims`
        # and in the benchmark suite.
        cheap = [c for c in CLAIMS if c.experiment == "fig2"]
        result = EXPERIMENTS["fig2"]("quick")
        return [ClaimOutcome(c, *c.check(result)) for c in cheap]

    def test_cheap_claims_pass(self, outcomes):
        assert all(outcome.passed for outcome in outcomes)

    def test_render(self, outcomes):
        text = render_outcomes(outcomes)
        assert "PASS" in text
        assert "paper:" in text and "measured:" in text
        assert f"{len(outcomes)}/{len(outcomes)} claims reproduced" in text

    def test_measured_lines_print_bounds(self, outcomes):
        measured = {o.claim.claim_id: o.measured for o in outcomes}
        assert "in (6, 14)" in measured["cc-io-collapse"]
        assert "<= 0.35" in measured["micro-calibration"]
        assert "<= 0.2" in measured["micro-calibration"]

    def test_failing_term_is_marked(self):
        assert claims_module._cmp("x", 1.0, "<", 0.5) == (False, "x 1.0 NOT < 0.5")
        assert claims_module._cmp("x", 0.3, "<", 0.5) == (True, "x 0.3 < 0.5")
