"""Claims-registry tests (the reproduction scorecard)."""

import pytest

from repro.bench import CLAIMS, Claim, verify_claims
from repro.bench import claims as claims_module
from repro.bench.claims import ClaimOutcome, render_outcomes
from repro.bench.tables import ExperimentResult


class TestRegistry:
    def test_every_eval_figure_claimed(self):
        experiments = {claim.experiment.__name__ for claim in CLAIMS}
        for name in (
            "fig2_microbenchmark",
            "fig3a_flexgen_overhead",
            "fig3b_vllm_overhead",
            "fig3c_peft_overhead",
            "fig7_model_offloading",
            "fig8_kv_swapping",
            "fig9_threading",
            "fig10_success_rate",
            "ablation_enc_threads",
            "ablation_async_decrypt",
            "ablation_leeway",
            "ablation_kv_depth",
            "extension_teeio_scaling",
            "extension_layerwise_fifo",
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

        first, second = fake("first"), fake("second")
        checks = [(True, "ok"), (False, "bad"), (True, "ok")]
        monkeypatch.setattr(claims_module, "CLAIMS", [
            Claim(f"c{i}", "s", "p", experiment, lambda _, out=out: out)
            for i, (experiment, out) in enumerate(zip((first, second, first), checks))
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
        from repro.bench.claims import CLAIMS as ALL

        cheap = [c for c in ALL if c.experiment.__name__ == "fig2_microbenchmark"]
        result = cheap[0].experiment("quick")
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
