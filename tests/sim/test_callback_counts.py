"""Deterministic work counts for kernel callbacks.

``Simulator.dispatched`` counts every callback the event loop runs
(heap pops plus FIFO pops), so a change in how much kernel work one
operation costs shows up as an exact count on any machine, with no
wall time involved. The pool counts below are for one 4-slice
encryption on a 4-worker pool after the workers have booted, plus the
one callback the test registers on the completion; the staging counts
are for one 64 MB copy into the shared DMA ring. The transfer-layer
counts are whole runs through every runtime's memcpy paths and the
encrypted fabric.
"""

import pytest

from repro.bench.experiments import run_vllm
from repro.bench.systems import CC, WITHOUT_CC, pipellm
from repro.cc import CcMode, build_machine
from repro.hw import GB
from repro.hw.dma import DmaStaging
from repro.hw.engine import CryptoEngine
from repro.hw.params import HardwareParams
from repro.models import OPT_30B
from repro.parallel import LinkSpeculator, TensorParallelEngine
from repro.sim import Simulator
from repro.workloads import SHAREGPT

WAYS = 4
CHUNK = 4 << 20
STAGED = 64 << 20  # four 16 MB pieces of the default ring


class Skew:
    """Fault-plane stand-in: the n-th submission takes (n+1)x as long."""

    def __init__(self) -> None:
        self.calls = 0

    def engine_service_time(self, service: float, pool: str) -> float:
        self.calls += 1
        return service * self.calls


def parallel_encrypt_cost(busy_worker: bool = False, faults=None):
    """Callbacks to finish one parallel encryption; and its finish time."""
    sim = Simulator()
    engine = CryptoEngine(sim, HardwareParams(), enc_threads=WAYS, faults=faults)
    sim.run()  # the workers boot and park
    if busy_worker:
        engine.submit_encrypt(4 * CHUNK)  # one worker stays busy for longer
        sim.run(until=sim.now)
    done_at = []
    engine.submit_encrypt_parallel(CHUNK, ways=WAYS).add_callback(
        lambda _event: done_at.append(sim.now)
    )
    start = sim.dispatched
    sim.run()
    assert len(done_at) == 1
    return sim.dispatched - start, done_at[0]


class TestParallelSubmitCallbacks:
    def test_equal_slices_on_idle_workers_run_as_one_gang(self):
        # One wake-up, one timer, one finish, one completion hop and the
        # registered callback. Per-slice jobs would cost 4 + 4 + 4
        # (wake, timer, finish per slice) + 4 ``all_of`` child
        # notifications + 1.
        count, _ = parallel_encrypt_cost()
        assert count == 5

    def test_a_busy_worker_keeps_the_per_slice_path(self):
        # Three slices wake idle workers and one queues; plus the busy
        # worker's own timer and finish, and the queued slice's timer
        # and finish once it frees up.
        count, _ = parallel_encrypt_cost(busy_worker=True)
        assert count == 18

    def test_unequal_service_times_keep_the_per_slice_path(self):
        count, finish = parallel_encrypt_cost(faults=Skew())
        assert count == 17
        slice_time = HardwareParams().enc_time(CHUNK // WAYS, threads=1)
        assert finish == pytest.approx(WAYS * slice_time)


def staging_cost(foreign_at_piece=None):
    """Callbacks to stage ``STAGED`` bytes from an idle simulator.

    With ``foreign_at_piece=k`` an unrelated timer is due exactly when
    the k-th piece's memcpy finishes. Returns the count and, per
    finished transfer, its time and whether the foreign timer had run.
    """
    sim = Simulator()
    staging = DmaStaging(sim)
    piece_time = staging._memcpy.duration_of(staging.buffer_bytes)
    boundaries = [piece_time]
    while len(boundaries) < 4:
        boundaries.append(boundaries[-1] + piece_time)
    foreign = None
    if foreign_at_piece is not None:
        foreign = sim.timeout(boundaries[foreign_at_piece - 1])
    finished = []

    def copy():
        yield from staging.stage(STAGED)
        finished.append((sim.now, foreign is not None and foreign.triggered))

    sim.process(copy())
    sim.run()
    assert staging.stage_count == 4
    assert [when for when, _ran in finished] == [boundaries[-1]]
    return sim.dispatched, [ran for _when, ran in finished]


class TestStagingCallbacks:
    def test_an_uncontended_copy_runs_inline(self):
        # Only the process start-up. The per-piece path costs 1 + 4 x 3
        # (slot hop, memcpy timer, wake-up) = 13.
        count, _ = staging_cost()
        assert count == 1

    def test_a_foreign_timer_on_a_piece_boundary_keeps_its_place(self):
        # The second piece's memcpy ties the foreign timer, so it takes
        # the queue: the foreign timer, then its own timer and wake-up.
        # Pieces three and four run inline again. Per piece: 14.
        count, foreign_ran = staging_cost(foreign_at_piece=2)
        assert count == 4
        assert foreign_ran == [True]


class TestTransferLayerCallbacks:
    @pytest.mark.parametrize("system, count", [
        (WITHOUT_CC, 13326),
        (CC, 14642),
        # Staged swap-ins, deferrals and NOP pads (78) included.
        (pipellm(1, 1), 20764),
    ], ids=["w/o-cc", "cc", "pipellm"])
    def test_vllm_run(self, system, count):
        _, runtime = run_vllm(system, OPT_30B, SHAREGPT, 4.0, 6, 8.0, reserve_bytes=1 * GB)
        assert runtime.machine.sim.dispatched == count

    def test_tp2_with_link_speculation(self):
        machine = build_machine(CcMode.ENABLED, n_gpus=2, enc_threads=8, dec_threads=8)
        machine.interconnect.attach_speculator(LinkSpeculator(lambda: machine.sim.now))
        TensorParallelEngine(machine, OPT_30B, batch=8).run(output_tokens=2)
        assert machine.sim.dispatched == 15073
