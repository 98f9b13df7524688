"""SequenceGroup and scheduler-state tests."""

import pytest

from repro.models import KvGeometry, OPT_30B
from repro.serving.vllm import SchedulerState, SequenceGroup
from repro.workloads import Request


@pytest.fixture
def geometry():
    return KvGeometry(OPT_30B, block_size=16)


def group(request_id=0, arrival=0.0, prompt=32, output=64, n=2):
    return SequenceGroup(
        request=Request(request_id, arrival, prompt_len=prompt, output_len=output, parallel_n=n)
    )


class TestBlockAccounting:
    def test_initial_blocks(self, geometry):
        g = group(prompt=32, n=2)
        # 2 prompt blocks + 2 sequences × 1 block each.
        assert g.blocks_held(geometry) == 2 + 2

    def test_growth_at_block_boundary(self, geometry):
        g = group(prompt=32, n=2)
        g.generated = 16  # Both sequences exactly fill their block.
        assert g.step_block_growth(geometry) == 2  # One new block each.
        g.generated = 10
        assert g.step_block_growth(geometry) == 0

    def test_kv_bytes(self, geometry):
        g = group(prompt=32, n=2)
        assert g.kv_bytes(geometry) == g.blocks_held(geometry) * geometry.block_bytes

    def test_context_len(self, geometry):
        g = group(prompt=32)
        g.generated = 5
        assert g.context_len() == 37

    def test_done(self, geometry):
        g = group(output=10)
        g.generated = 9
        assert not g.done
        g.generated = 10
        assert g.done


class TestNormalizedLatency:
    def test_value(self):
        g = group(arrival=2.0, output=10)
        g.finish_time = 7.0
        assert g.normalized_latency() == pytest.approx(0.5)

    def test_unfinished_raises(self):
        with pytest.raises(ValueError):
            group().normalized_latency()


class TestVictimSelection:
    def test_latest_arrival_preempted(self):
        state = SchedulerState()
        early, late = group(0, arrival=1.0), group(1, arrival=5.0)
        early.generated = late.generated = 3
        state.running = [early, late]
        assert state.pick_victim() is late

    def test_prefers_groups_with_progress(self):
        state = SchedulerState()
        fresh, started = group(0, arrival=9.0), group(1, arrival=1.0)
        started.generated = 3
        state.running = [fresh, started]
        assert state.pick_victim() is started

    def test_empty_returns_none(self):
        assert SchedulerState().pick_victim() is None

    def test_running_seqs(self):
        state = SchedulerState()
        state.running = [group(0, n=2), group(1, n=6)]
        assert state.running_seqs == 8
