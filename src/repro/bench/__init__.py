"""Benchmark harness: the experiment registry.

``EXPERIMENTS`` maps each experiment id to its runner,
``run(scale) -> ExperimentResult``, in presentation order. The CLI, the
claims gate, ``scripts/generate_experiments.py`` and
``scripts/reachability.py`` all read this one dict; every other name is
imported from the submodule that defines it.
"""

from typing import Callable, Dict

from .ablations import ablation_async_decrypt, ablation_enc_threads, ablation_kv_depth, ablation_leeway
from .cluster import cluster_scaling
from .disagg import disagg_frontier
from .experiments import (
    attribution_breakdown,
    fig10_success_rate,
    fig2_microbenchmark,
    fig3a_flexgen_overhead,
    fig3b_vllm_overhead,
    fig3c_peft_overhead,
    fig7_model_offloading,
    fig8_kv_swapping,
    fig9_threading,
)
from .extensions import extension_layerwise_fifo, extension_zero_offload
from .faults import fault_campaign
from .parallel import parallel_scaling
from .serve import serve_frontier
from .teeio import extension_teeio_scaling

__all__ = ["EXPERIMENTS"]

EXPERIMENTS: Dict[str, Callable] = {
    "fig2": fig2_microbenchmark,
    "fig3a": fig3a_flexgen_overhead,
    "fig3b": fig3b_vllm_overhead,
    "fig3c": fig3c_peft_overhead,
    "fig7": fig7_model_offloading,
    "fig8": fig8_kv_swapping,
    "fig9": fig9_threading,
    "fig10": fig10_success_rate,
    "abl-threads": ablation_enc_threads,
    "abl-asyncdec": ablation_async_decrypt,
    "abl-leeway": ablation_leeway,
    "abl-kvdepth": ablation_kv_depth,
    "ext-teeio": extension_teeio_scaling,
    "ext-layerwise": extension_layerwise_fifo,
    "ext-zero": extension_zero_offload,
    "cluster": cluster_scaling,
    "serve": serve_frontier,
    "disagg": disagg_frontier,
    "faults": fault_campaign,
    "parallel": parallel_scaling,
    "attrib": attribution_breakdown,
}
