"""Tests for the TP and PP engines (repro.parallel.tp / .pp)."""

import pytest

from repro.cc import CcMode, build_machine
from repro.models import OPT_13B
from repro.parallel import (
    LinkSpeculator,
    PipelineParallelEngine,
    TensorParallelEngine,
)


def tp_run(mode, n_gpus, threads=1, speculate=False, batch=16, tokens=2):
    machine = build_machine(
        CcMode.DISABLED if mode == "nocc" else CcMode.ENABLED,
        n_gpus=n_gpus, enc_threads=threads, dec_threads=threads,
    )
    if speculate and machine.interconnect is not None:
        machine.interconnect.attach_speculator(
            LinkSpeculator(lambda: machine.sim.now)
        )
    engine = TensorParallelEngine(machine, OPT_13B, batch=batch)
    return engine.run(output_tokens=tokens)


def pp_run(mode, n_gpus, threads=1, speculate=False):
    machine = build_machine(
        CcMode.DISABLED if mode == "nocc" else CcMode.ENABLED,
        n_gpus=n_gpus, enc_threads=threads, dec_threads=threads,
    )
    if speculate and machine.interconnect is not None:
        machine.interconnect.attach_speculator(
            LinkSpeculator(lambda: machine.sim.now)
        )
    engine = PipelineParallelEngine(machine, OPT_13B, microbatches=4, microbatch_tokens=64)
    return engine.run_inference()


class TestTensorParallel:
    def test_single_gpu_needs_no_fabric(self):
        res = tp_run("cc", 1)
        assert res.hops == 0 and res.tokens > 0

    def test_tokens_scale_with_batch_and_steps(self):
        res = tp_run("nocc", 2, batch=16, tokens=3)
        assert res.tokens == 16 * 3

    def test_hop_count_matches_ring_schedule(self):
        n, tokens = 4, 2
        res = tp_run("nocc", n, tokens=tokens)
        # 2 all-reduces/layer, each 2(N-1) steps of N concurrent hops.
        assert res.hops == tokens * OPT_13B.n_layers * 2 * 2 * (n - 1) * n

    def test_multi_gpu_beats_single_without_cc(self):
        assert tp_run("nocc", 4).throughput > tp_run("nocc", 1).throughput

    def test_cc_collapses_below_no_cc(self):
        assert tp_run("cc", 2).throughput < tp_run("nocc", 2).throughput

    def test_speculation_recovers_most_of_the_gap(self):
        nocc = tp_run("nocc", 2, batch=64)
        cc = tp_run("cc", 2, batch=64)
        pipe = tp_run("cc", 2, threads=8, speculate=True, batch=64)
        gap = nocc.throughput - cc.throughput
        assert gap > 0
        assert (pipe.throughput - cc.throughput) / gap >= 0.5
        assert pipe.spec_hit_rate > 0.9

    def test_checksum_identical_across_systems(self):
        # The reduction's functional result is system-independent: only
        # the timing differs between P2P, serialized, and staged.
        sums = {tp_run(m, 2, threads=t, speculate=s).checksum
                for m, t, s in (("nocc", 1, False), ("cc", 1, False), ("cc", 8, True))}
        assert len(sums) == 1


class TestPipelineParallel:
    def test_inference_processes_every_microbatch(self):
        res = pp_run("nocc", 2)
        assert res.tokens == 4 * 64
        assert res.hops == 4  # one boundary, one hop per microbatch

    def test_cc_overhead_mild_relative_to_tp(self):
        # PP ships one activation per microbatch per boundary — CC
        # hurts, but nothing like the TP collapse.
        nocc = pp_run("nocc", 4)
        cc = pp_run("cc", 4)
        assert cc.throughput < nocc.throughput
        assert cc.throughput > 0.5 * nocc.throughput

    def test_bad_microbatches_rejected(self):
        machine = build_machine(CcMode.DISABLED, n_gpus=2)
        with pytest.raises(ValueError):
            PipelineParallelEngine(machine, OPT_13B, microbatches=0)


class TestDeterminism:
    def test_same_config_same_result(self):
        a = tp_run("cc", 2, threads=8, speculate=True)
        b = tp_run("cc", 2, threads=8, speculate=True)
        assert (a.checksum, a.elapsed_s, a.hops) == (b.checksum, b.elapsed_s, b.hops)

    def test_pp_same_config_same_result(self):
        a = pp_run("cc", 3, threads=8, speculate=True)
        b = pp_run("cc", 3, threads=8, speculate=True)
        assert (a.checksum, a.elapsed_s) == (b.checksum, b.elapsed_s)
