"""BlockManager accounting tests plus a hypothesis invariant."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving.vllm import BlockAllocationError, BlockManager


class TestBasics:
    def test_initial_state(self):
        manager = BlockManager(100)
        assert manager.free_blocks == 100
        assert manager.used_blocks == 0

    def test_allocate_free(self):
        manager = BlockManager(100)
        manager.allocate("req1", 30)
        manager.allocate("req2", 20)
        assert manager.used_blocks == 50
        assert manager.free_owner("req1") == 30
        assert manager.used_blocks == 20

    def test_incremental_allocation(self):
        manager = BlockManager(100)
        manager.allocate("req1", 10)
        manager.allocate("req1", 5)
        assert manager.free_owner("req1") == 15

    def test_over_allocation_rejected(self):
        manager = BlockManager(10)
        with pytest.raises(BlockAllocationError):
            manager.allocate("req1", 11)

    def test_can_allocate(self):
        manager = BlockManager(10)
        manager.allocate("a", 7)
        assert manager.can_allocate(3)
        assert not manager.can_allocate(4)

    def test_free_unknown_owner(self):
        assert BlockManager(10).free_owner("ghost") == 0

    def test_peak_tracking(self):
        manager = BlockManager(100)
        manager.allocate("a", 60)
        manager.free_owner("a")
        manager.allocate("b", 10)
        assert manager.peak_used == 60

    def test_negative_rejected(self):
        manager = BlockManager(10)
        with pytest.raises(ValueError):
            manager.allocate("a", -1)
        with pytest.raises(ValueError):
            BlockManager(-1)


class TestInvariant:
    @given(st.lists(
        st.tuples(st.sampled_from(["alloc", "free"]),
                  st.integers(min_value=0, max_value=9),
                  st.integers(min_value=0, max_value=30)),
        max_size=60,
    ))
    @settings(max_examples=50, deadline=None)
    def test_used_never_exceeds_total(self, ops):
        manager = BlockManager(100)
        for op, owner_id, count in ops:
            owner = f"req{owner_id}"
            if op == "alloc":
                if manager.can_allocate(count):
                    manager.allocate(owner, count)
            else:
                manager.free_owner(owner)
            assert 0 <= manager.used_blocks <= manager.total_blocks
            assert manager.used_blocks + manager.free_blocks == manager.total_blocks
