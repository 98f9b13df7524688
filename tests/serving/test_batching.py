"""The continuous-batching core's phase order, run one step at a time.

Each test builds the core on a bare machine with an exact KV block
budget, places groups in its queues by hand and runs one
:meth:`ContinuousBatcher.step`.
"""

import pytest

from repro.cc import CcMode, CudaContext, build_machine
from repro.cluster.replica import Replica
from repro.models import OPT_13B, KvGeometry, TransformerCostModel
from repro.serving.vllm import (
    BlockAllocationError, ContinuousBatcher, SequenceGroup, VllmConfig, VllmEngine,
)
from repro.serving.vllm.batching import PAYLOAD_BYTES, RESUME_WATERMARK
from repro.workloads import Request

#: Blocks of the test machines' KV pool (a watermark of 4 blocks).
TOTAL_BLOCKS = 200
WATERMARK = int(TOTAL_BLOCKS * RESUME_WATERMARK)


class Loop(ContinuousBatcher):
    """The core alone, with a pool of ``TOTAL_BLOCKS`` KV blocks."""

    def __init__(self):
        self.machine = build_machine(CcMode.DISABLED)
        self.runtime = CudaContext(self.machine)
        self.geometry = KvGeometry(OPT_13B)
        self.cost = TransformerCostModel(OPT_13B)
        room = TOTAL_BLOCKS * self.geometry.block_bytes
        self._start_batching(self.machine.params.gpu_memory_bytes - OPT_13B.total_bytes - room)
        assert self.blocks.total_blocks == TOTAL_BLOCKS

    def _swap_payload(self, tag):
        return b"\x03" * PAYLOAD_BYTES

    def leave_free(self, blocks):
        self.blocks.free_owner("ballast")
        self.blocks.allocate("ballast", self.blocks.free_blocks - blocks)

    def run(self, group, generated=0):
        group.generated = generated
        self.blocks.allocate(group.owner, group.blocks_held(self.geometry))
        self.state.running.append(group)
        return group

    def swap(self, group, generated=5):
        group.generated = generated
        group.swap_region = self.machine.host_memory.allocate(
            group.kv_bytes(self.geometry), tag=f"kv.{group.owner}", payload=b"\x03" * PAYLOAD_BYTES
        )
        self.state.swapped.append(group)
        return group

    def wait(self, group):
        self.state.waiting.append(group)
        return group

    def step_once(self):
        proc = self.machine.sim.process(self.step())
        self.machine.run()
        return proc.value


def group(request_id, arrival=0.0, prompt=32, n=1):
    """A group holding 2 prompt blocks + ``n`` blocks at 1-16 tokens."""
    return SequenceGroup(
        Request(request_id, arrival, prompt_len=prompt, output_len=64, parallel_n=n)
    )


class TestResumeAndAdmit:
    def test_swapped_group_resumes_before_waiting_group_admits(self):
        loop = Loop()
        swapped = loop.swap(group(0))
        waiting = loop.wait(group(1, arrival=1.0))
        assert loop.step_once()
        assert loop.state.running == [swapped, waiting]
        assert loop.swap_in_count == 1

    def test_admission_blocked_while_any_group_is_swapped(self):
        # Room for the top of the stack (3 blocks + watermark), not for
        # the one beneath it; the waiting group would fit but must wait.
        loop = Loop()
        loop.leave_free(3 + WATERMARK + 2)
        beneath = loop.swap(group(0))
        top = loop.swap(group(1))
        waiting = loop.wait(group(2))
        assert loop.step_once()
        assert loop.state.running == [top]
        assert loop.state.swapped == [beneath]
        assert loop.state.waiting == [waiting]

    def test_resume_keeps_the_watermark_free(self):
        loop = Loop()
        loop.leave_free(3 + WATERMARK - 1)
        swapped = loop.swap(group(0))
        assert not loop.step_once()
        assert loop.state.swapped == [swapped]
        loop.leave_free(3 + WATERMARK)
        assert loop.step_once()
        assert loop.state.running == [swapped]

    def test_resumed_region_freed_only_after_synchronize(self):
        loop = Loop()
        swapped = loop.swap(group(0))
        region = swapped.swap_region
        handles, freed = [], []
        h2d, free = loop.runtime.memcpy_h2d, loop.machine.host_memory.free

        def record_h2d(chunk):
            handles.append(h2d(chunk))
            return handles[-1]

        def record_free(r):
            freed.append((r, all(h.complete.triggered for h in handles)))
            free(r)

        loop.runtime.memcpy_h2d = record_h2d
        loop.machine.host_memory.free = record_free
        assert loop.step_once()
        assert freed == [(region, True)]
        assert swapped.swap_region is None


class TestPreemption:
    def test_last_running_group_is_never_preempted(self):
        # After the newer group is swapped out, the older one still
        # cannot grow: the step fails instead of emptying the batch.
        loop = Loop()
        older = loop.run(group(0, arrival=0.0, n=4), generated=16)
        loop.run(group(1, arrival=1.0), generated=16)
        loop.leave_free(0)
        with pytest.raises(BlockAllocationError):
            loop.step_once()
        assert loop.swap_out_count == 1
        assert loop.state.running == [older]

    @pytest.mark.parametrize("rule,victim", [
        (VllmEngine._pick_victim, "started"),
        (Replica._pick_victim, "fresh"),
    ], ids=["vllm-prefers-progress", "replica-newest-arrival"])
    def test_victim_rule(self, rule, victim):
        loop = type("RuleLoop", (Loop,), {"_pick_victim": rule})()
        groups = {
            # Needs 2 new blocks this step; the fresh group needs none.
            "started": loop.run(group(0, arrival=1.0, n=2), generated=16),
            "fresh": loop.run(group(1, arrival=5.0)),
        }
        loop.leave_free(0)
        assert loop.step_once()
        assert loop.state.swapped == [groups[victim]]
        assert loop.swap_out_count == 1


class TestUnservable:
    """A swapped group that fits the pool, but not the pool less the
    resume watermark, can never resume: each loop must give it up
    instead of stepping on it forever."""

    def squeezed(self, loop):
        # 196 prompt blocks + 1 decode block: fits 200, not 200 - 4.
        return loop.swap(group(0, prompt=196 * loop.geometry.block_size))

    def test_replica_rejects_it(self):
        rejected = []
        gateway = type("Gateway", (), {
            "on_reject": lambda self, creq, replica, reason: rejected.append((creq, reason)),
        })()
        loop = type("ReplicaLoop", (Loop,), {
            "_reject_unservable": Replica._reject_unservable, "gateway": gateway,
        })()
        top = self.squeezed(loop)
        top.creq = "routed request"
        assert not loop.step_once()
        loop._reject_unservable()
        assert rejected == [("routed request", "kv-budget")]
        assert loop.state.swapped == []
        assert top.swap_region is None

    def test_engine_raises(self):
        machine = build_machine(CcMode.DISABLED)
        geometry = KvGeometry(OPT_13B)
        room = TOTAL_BLOCKS * geometry.block_bytes
        reserve = machine.params.gpu_memory_bytes - OPT_13B.total_bytes - room
        engine = VllmEngine(machine, CudaContext(machine), VllmConfig(
            OPT_13B, [Request(0, 0.0, prompt_len=196 * geometry.block_size, output_len=64)],
            reserve_bytes=reserve,
        ))
        assert engine.blocks.total_blocks == TOTAL_BLOCKS
        stuck = engine._future.pop()
        stuck.generated = 5
        stuck.swap_region = machine.host_memory.allocate(
            stuck.kv_bytes(geometry), tag=f"kv.{stuck.owner}", payload=b"\x03" * PAYLOAD_BYTES
        )
        engine.state.swapped.append(stuck)
        with pytest.raises(RuntimeError, match="never fit 200 KV blocks"):
            engine.run()
