"""OpenAI-style request/response model."""

import math

import pytest

from repro.serve import CompletionRequest, CompletionResponse, Usage


def _request(**kw):
    base = dict(request_id=7, tenant="tenant-0", prompt_tokens=64, max_tokens=16)
    base.update(kw)
    return CompletionRequest(**base)


class TestCompletionRequest:
    def test_priority_follows_tier_order(self):
        assert _request(tier="interactive").priority == 0
        assert _request(tier="standard").priority == 1
        assert _request(tier="batch").priority == 2

    def test_rejects_unknown_tier(self):
        with pytest.raises(ValueError):
            _request(tier="platinum")

    def test_rejects_nonpositive_token_budgets(self):
        with pytest.raises(ValueError):
            _request(prompt_tokens=0)
        with pytest.raises(ValueError):
            _request(max_tokens=0)


class TestCompletionResponse:
    def _response(self, **kw):
        base = dict(
            request=_request(arrival_time=1.0),
            created=2.0,
            finish_reason="stop",
            usage=Usage(64, 16),
            first_token_time=1.2,
            finish_time=2.0,
        )
        base.update(kw)
        return CompletionResponse(**base)

    def test_derived_latency_metrics(self):
        response = self._response()
        assert response.ok
        assert response.ttft == pytest.approx(0.2)
        assert response.tpot == pytest.approx((2.0 - 1.2) / 15)
        assert response.latency == pytest.approx(1.0)

    def test_shed_response_has_nan_metrics(self):
        response = self._response(
            finish_reason="shed:deadline",
            first_token_time=math.nan,
            usage=Usage(64, 0),
        )
        assert not response.ok
        assert math.isnan(response.ttft)
        assert math.isnan(response.tpot)

    def test_single_token_completion_has_no_tpot(self):
        response = self._response(usage=Usage(64, 1))
        assert math.isnan(response.tpot)
