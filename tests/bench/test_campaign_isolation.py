"""Campaign isolation: no suite campaign depends on another having run.

Each campaign of the smoke suite, run alone, must equal its entry in
the canonical :func:`run_suite` artifact, and all campaigns run in
reverse order must equal the canonical run. Together they pin that the
artifact does not depend on campaign order, so a new campaign may go
anywhere in :data:`CAMPAIGNS`.
"""

import json

import pytest

from repro.bench.continuous import CAMPAIGNS, SUITES, run_suite
from repro.sim import default_seed, set_default_seed

SEED = 1


def canonical(doc):
    return json.dumps(doc, sort_keys=True)


def run_campaigns(names):
    """Run ``names`` in order under the seed override, like ``run_suite``."""
    previous = default_seed(None)
    set_default_seed(SEED)
    try:
        return {name: CAMPAIGNS[name](SUITES["smoke"], SEED) for name in names}
    finally:
        set_default_seed(previous)


@pytest.fixture(scope="module")
def suite():
    return run_suite("smoke", seed=SEED)["campaigns"]


def test_suite_runs_every_campaign(suite):
    assert list(suite) == list(CAMPAIGNS)


@pytest.mark.parametrize("name", list(CAMPAIGNS))
def test_campaign_alone_equals_its_suite_entry(suite, name):
    assert canonical(run_campaigns([name])[name]) == canonical(suite[name])


def test_reversed_order_equals_canonical(suite):
    assert canonical(run_campaigns(reversed(list(CAMPAIGNS)))) == canonical(suite)
