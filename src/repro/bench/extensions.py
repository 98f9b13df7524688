"""Extension experiments on the additional substrates.

* ``extension_layerwise_fifo`` — Figure 5's layer-wise (FIFO) KV
  swapping pattern end to end, with rewritten-every-step KV.
* ``extension_zero_offload`` — DeepSpeed ZeRO-Offload *full*
  fine-tuning: read-write weight streaming plus per-layer gradient
  swap-outs, the adversarial case for weight speculation.
"""

from __future__ import annotations

from ..models import OPT_13B, OPT_30B
from ..serving import (
    LayerwiseConfig,
    LayerwiseKvEngine,
    ZeroOffloadConfig,
    ZeroOffloadEngine,
)
from ..sim import SeededRng, default_seed
from ..workloads import SyntheticShape, ultrachat_batches
from .experiments import get_scale
from .systems import CC, WITHOUT_CC, pipellm
from .tables import ExperimentResult

__all__ = ["extension_layerwise_fifo", "extension_zero_offload"]


def extension_layerwise_fifo(scale="quick") -> ExperimentResult:
    """Layer-wise KV swapping (OPT-30B): w/o CC vs CC vs PipeLLM."""
    scale = get_scale(scale)
    steps = 4 if scale.name == "quick" else 8
    shape = SyntheticShape(192, steps)
    result = ExperimentResult(
        "ext-layerwise",
        "Layer-wise (FIFO) KV swapping, OPT-30B batch 256",
        columns=["system", "throughput_tok_s", "overhead_pct",
                 "streamed_layers", "success_rate"],
    )
    runs = {}
    stats = {}
    for system in (WITHOUT_CC, CC, pipellm(8, 8)):
        machine, runtime = system.build()
        config = LayerwiseConfig(OPT_30B, shape, batch_size=256)
        res = LayerwiseKvEngine(machine, runtime, config).run()
        if machine.gpu.auth_failures:
            raise AssertionError("authentication failure in layer-wise run")
        runs[system.name] = res
        if system.uses_pipellm:
            stats[system.name] = runtime.stats()["success_rate"]
    base = runs["w/o CC"].throughput
    for name, res in runs.items():
        result.add_row(
            system=name,
            throughput_tok_s=res.throughput,
            overhead_pct=100.0 * (1.0 - res.throughput / base),
            streamed_layers=res.streamed_layers,
            success_rate=stats.get(name, ""),
        )
    result.add_note(
        "per-layer KV is rewritten every decode step, so every hit's "
        "ciphertext was produced after the previous step's write-back"
    )
    return result


def extension_zero_offload(scale="quick") -> ExperimentResult:
    """ZeRO-Offload full fine-tuning (OPT-13B, 10 layers streamed)."""
    scale = get_scale(scale)
    steps = max(3, scale.peft_steps)
    result = ExperimentResult(
        "ext-zero",
        "ZeRO-Offload full fine-tuning (read-write weight stream), OPT-13B",
        columns=["system", "throughput_tok_s", "overhead_pct",
                 "fault_invalidations", "success_rate"],
    )
    runs = {}
    stats = {}
    for system in (WITHOUT_CC, CC, pipellm(8, 8)):
        machine, runtime = system.build()
        batches = ultrachat_batches(steps, 16, SeededRng(default_seed(7)))
        config = ZeroOffloadConfig(OPT_13B, batches, resident_layers=30)
        res = ZeroOffloadEngine(machine, runtime, config).run()
        if machine.gpu.auth_failures:
            raise AssertionError("authentication failure in ZeRO run")
        runs[system.name] = res
        if system.uses_pipellm:
            rt_stats = runtime.stats()
            stats[system.name] = (
                rt_stats["success_rate"], rt_stats["invalidated_by_fault"]
            )
    base = runs["w/o CC"].throughput
    for name, res in runs.items():
        success, faults = stats.get(name, ("", ""))
        result.add_row(
            system=name,
            throughput_tok_s=res.throughput,
            overhead_pct=100.0 * (1.0 - res.throughput / base),
            fault_invalidations=faults,
            success_rate=success,
        )
    result.add_note(
        "the CPU optimizer rewrites every streamed weight buffer each "
        "step; the fault_invalidations column counts the staged "
        "ciphertext the validator killed for it"
    )
    return result
