"""The paper-fidelity gate: one case per claim in ``repro.bench.claims.CLAIMS``.

Every experiment runs once, under one module-scoped scorecard; each
case asserts one claim. ``python -m repro claims`` prints the same
scorecard and ``python -m repro run <experiment>`` the tables behind it.
"""

import pytest

from repro.bench.claims import CLAIMS, verify_claims


@pytest.fixture(scope="module")
def outcomes():
    return {outcome.claim.claim_id: outcome for outcome in verify_claims("quick")}


@pytest.mark.parametrize("claim_id", [claim.claim_id for claim in CLAIMS])
def test_claim(outcomes, claim_id):
    outcome = outcomes[claim_id]
    assert outcome.passed, f"{outcome.claim.statement}: {outcome.measured}"
