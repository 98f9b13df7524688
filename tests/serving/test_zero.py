"""ZeRO-Offload full fine-tuning tests: read-write weight streaming."""

import pytest

from repro.cc import CcMode, CudaContext, build_machine
from repro.core import PipeLLMRuntime
from repro.models import OPT_13B
from repro.serving import ZeroOffloadConfig, ZeroOffloadEngine
from repro.sim import SeededRng
from repro.workloads import ultrachat_batches

RESIDENT = 30
STEPS = 3


def run(system, enc=8, dec=8, uploads=None):
    """Run the engine; ``uploads`` collects every H2D chunk in issue order."""
    if system == "w/o CC":
        machine = build_machine(CcMode.DISABLED)
        runtime = CudaContext(machine)
    else:
        machine = build_machine(CcMode.ENABLED, enc_threads=enc, dec_threads=dec)
        runtime = CudaContext(machine) if system == "CC" else PipeLLMRuntime(machine)
    if uploads is not None:
        memcpy_h2d = runtime.memcpy_h2d

        def recording_h2d(chunk):
            uploads.append(chunk)
            return memcpy_h2d(chunk)

        runtime.memcpy_h2d = recording_h2d
    batches = ultrachat_batches(STEPS, 16, SeededRng(7))
    config = ZeroOffloadConfig(OPT_13B, batches, resident_layers=RESIDENT)
    engine = ZeroOffloadEngine(machine, runtime, config)
    result = engine.run()
    assert machine.gpu.auth_failures == 0
    return result, machine, runtime, engine


class TestStructure:
    def test_offloaded_count(self):
        result, _, _, _ = run("w/o CC")
        assert result.offloaded_layers == OPT_13B.n_layers - RESIDENT

    def test_swap_ins_fwd_and_bwd(self):
        result, _, _, engine = run("w/o CC")
        assert engine.swap_in_count == 2 * result.offloaded_layers * STEPS

    def test_validation(self):
        machine = build_machine(CcMode.DISABLED)
        with pytest.raises(ValueError):
            ZeroOffloadEngine(machine, CudaContext(machine), ZeroOffloadConfig(OPT_13B, []))


class TestOptimizerWrites:
    def test_gpu_receives_updated_weights(self):
        """Step t's upload must carry the optimizer's step t-1 output —
        never a stale speculatively encrypted version."""
        _, machine, _, engine = run("PipeLLM")
        for layer in engine.offloaded:
            # The last upload happened during the final step, carrying
            # the previous step's update.
            assert machine.gpu.read_plaintext(f"opt-13b.zero.w.{layer}") == (
                engine._weight_payload(layer, STEPS - 2)
            )

    @pytest.mark.parametrize("system", ["w/o CC", "CC", "PipeLLM"])
    def test_every_upload_carries_previous_step_weights(self, system):
        """No weight load may be issued before the optimizer step that
        precedes its use: step s computes on step s-1's update."""
        uploads = []
        _, _, _, engine = run(system, uploads=uploads)
        weights = [c for c in uploads if ".zero.w." in c.tag]
        per_step = 2 * len(engine.offloaded)
        assert len(weights) == per_step * STEPS
        for index, chunk in enumerate(weights):
            step = index // per_step
            layer = int(chunk.tag.rsplit(".", 1)[1])
            assert chunk.payload == engine._weight_payload(layer, step - 1), (
                f"step {step} loaded layer {layer} as {chunk.payload!r}"
            )

    def test_writes_invalidate_staged_ciphertext(self):
        _, _, runtime, _ = run("PipeLLM")
        # Every optimizer step rewrites every offloaded weight buffer.
        assert runtime.pipeline.invalidated_by_fault >= 1

    def test_gradients_arrive_on_host(self):
        _, machine, _, engine = run("w/o CC")
        for layer in engine.offloaded:
            grad = machine.host_memory.read(engine._grads[layer].addr)
            assert grad == f"g-L{layer}-s{STEPS - 1}".encode()


class TestOrdering:
    def test_pipellm_recovers_cc_loss(self):
        base, _, _, _ = run("w/o CC")
        cc, _, _, _ = run("CC")
        pipe, _, _, _ = run("PipeLLM")
        assert cc.throughput < base.throughput
        assert pipe.throughput > cc.throughput
        # Read-write streams cap the benefit (one mandatory re-encrypt
        # per layer per step) but most of the gap must close.
        gap_cc = base.throughput - cc.throughput
        gap_pipe = base.throughput - pipe.throughput
        assert gap_pipe < 0.5 * gap_cc
