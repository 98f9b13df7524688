"""The continuous-batching core's incremental block accounting against
the sum-based forms it replaced (differential oracle).

The core keeps three running totals instead of rescanning the batch:
the closed-form growth of one group, the block manager's used count,
and ``_make_room``'s growth total over the running groups, less each
victim's share as it is swapped out. Each is checked here against the
old formula, kept only in this file.
"""

from hypothesis import given, settings, strategies as st

import repro.cluster.cluster as cluster_module
from repro.bench.serve import SHAREGPT_SERVE, serve_config
from repro.cluster.replica import Replica
from repro.models import OPT_13B, KvGeometry
from repro.serve import LoadSpec, run_serve
from repro.serving.vllm import (
    BlockAllocationError, BlockManager, ContinuousBatcher, SequenceGroup, VllmEngine,
)
from repro.workloads import Request

from . import test_engine_golden as golden


def old_step_block_growth(group, geometry):
    """``blocks_after_step - blocks_held``, by four block roundings."""
    prompt = geometry.blocks_for_tokens(group.request.prompt_len)
    n = group.request.parallel_n
    after = prompt + n * geometry.blocks_for_tokens(group.generated + 1)
    held = prompt + n * geometry.blocks_for_tokens(max(group.generated, 1))
    return after - held


class SumBlockManager:
    """The block manager as it was: every total a sum over owners."""

    def __init__(self, total_blocks):
        self.total_blocks = total_blocks
        self._allocations = {}
        self.peak_used = 0

    @property
    def used_blocks(self):
        return sum(self._allocations.values())

    @property
    def free_blocks(self):
        return self.total_blocks - self.used_blocks

    def can_allocate(self, n_blocks):
        return n_blocks <= self.free_blocks

    def allocate(self, owner, n_blocks):
        if not self.can_allocate(n_blocks):
            raise BlockAllocationError(owner)
        self._allocations[owner] = self._allocations.get(owner, 0) + n_blocks
        self.peak_used = max(self.peak_used, self.used_blocks)

    def free_owner(self, owner):
        return self._allocations.pop(owner, 0)


class TestClosedFormGrowth:
    @given(
        prompt=st.integers(min_value=1, max_value=4096),
        generated=st.integers(min_value=0, max_value=4096),
        n=st.integers(min_value=1, max_value=8),
        block_size=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_old_difference(self, prompt, generated, n, block_size):
        geometry = KvGeometry(OPT_13B, block_size=block_size)
        group = SequenceGroup(
            Request(0, 0.0, prompt_len=prompt, output_len=generated + 1, parallel_n=n),
            generated=generated,
        )
        assert group.step_block_growth(geometry) == old_step_block_growth(group, geometry)


class TestRunningUsedCount:
    @given(
        total=st.integers(min_value=0, max_value=120),
        ops=st.lists(st.one_of(
            st.tuples(st.just("allocate"), st.integers(0, 5), st.integers(0, 50)),
            st.tuples(st.just("free_owner"), st.integers(0, 5)),
            st.tuples(st.just("can_allocate"), st.integers(0, 130)),
        ), max_size=80),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_sum_over_owners(self, total, ops):
        manager, oracle = BlockManager(total), SumBlockManager(total)
        for op, *args in ops:
            if op == "allocate":
                owner, n_blocks = f"req{args[0]}", args[1]
                fits = oracle.can_allocate(n_blocks)
                if fits:
                    oracle.allocate(owner, n_blocks)
                    manager.allocate(owner, n_blocks)
                else:
                    try:
                        manager.allocate(owner, n_blocks)
                    except BlockAllocationError:
                        pass
                    else:
                        raise AssertionError(f"granted {n_blocks} past the oracle's budget")
            elif op == "free_owner":
                owner = f"req{args[0]}"
                assert manager.free_owner(owner) == oracle.free_owner(owner)
            else:
                assert manager.can_allocate(args[0]) == oracle.can_allocate(args[0])
            assert manager.used_blocks == oracle.used_blocks
            assert manager.free_blocks == oracle.free_blocks
            assert manager.peak_used == oracle.peak_used


class GrowthChecked(ContinuousBatcher):
    """After every swap-out, the step's running growth total must equal
    a fresh sum over the groups still running."""

    #: Growth of each victim at its swap-out, across every checked run.
    victims = []

    def _swap_out(self, group):
        yield from super()._swap_out(group)
        fresh = sum(g.step_block_growth(self.geometry) for g in self.state.running)
        assert self._step_growth == fresh
        self.victims.append(group.step_block_growth(self.geometry))


class CheckedVllm(GrowthChecked, VllmEngine):
    pass


class CheckedReplica(GrowthChecked, Replica):
    pass


def victims_checked(monkeypatch):
    victims = []
    monkeypatch.setattr(GrowthChecked, "victims", victims)
    return victims


class TestRunningGrowthTotal:
    def test_vllm_golden_cases(self, monkeypatch):
        victims = victims_checked(monkeypatch)
        monkeypatch.setattr(golden, "VllmEngine", CheckedVllm)
        for system in golden.SYSTEMS:
            assert golden.digest("vllm", system) == golden.GOLDEN[("vllm", system)]
        # Some victims were mid-growth, so a missing subtraction shows.
        assert any(victims)

    def test_small_serve_run(self, monkeypatch):
        victims = victims_checked(monkeypatch)
        monkeypatch.setattr(cluster_module, "Replica", CheckedReplica)
        # The serve frontier's fleet at its top rate, where it swaps.
        result = run_serve(serve_config("pipellm"), LoadSpec(
            trace=SHAREGPT_SERVE, rate=40.0, duration=2.0,
        ))
        assert result.completed + result.shed == result.offered
        assert any(victims)
