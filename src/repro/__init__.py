"""PipeLLM reproduction: speculative pipelined encryption for
confidential GPU LLM serving (Tan et al., ASPLOS 2025), on a fully
simulated H100 confidential-computing stack.

Public API tour:

* :mod:`repro.cc` — build a machine (``build_machine``) and run the
  baseline runtimes (``CudaContext`` with CC on/off).
* :mod:`repro.core` — :class:`PipeLLMRuntime`, the paper's
  contribution, plus its predictor / validator / pipeline parts.
* :mod:`repro.serving` — FlexGen-, vLLM- and PEFT-like engines that
  run unmodified on any runtime.
* :mod:`repro.bench` — ``EXPERIMENTS``, the registry of one function
  per paper figure, ablation and extension.
* :mod:`repro.telemetry` — unified observability: per-machine
  :class:`TelemetryHub` (typed events + lifecycle records),
  :func:`recording` to capture whole experiments, and Chrome-trace /
  JSON / CSV / ASCII exporters (``python -m repro trace``).
* :mod:`repro.crypto`, :mod:`repro.hw`, :mod:`repro.sim` — the
  substrates (real AES-GCM, calibrated hardware models, deterministic
  discrete-event simulator).
"""

from .cc import CcMode, CudaContext, DeviceRuntime, Machine, build_machine
from .core import PipeLLMConfig, PipeLLMRuntime
from .hw import GB, HardwareParams, KB, MB, MemoryChunk, default_params
from .models import MODELS, ModelSpec, OPT_13B, OPT_30B, OPT_66B, OPT_175B_4BIT
from .telemetry import TelemetryHub, chrome_trace, recording

__version__ = "1.0.0"

__all__ = [
    "CcMode",
    "CudaContext",
    "DeviceRuntime",
    "GB",
    "HardwareParams",
    "KB",
    "MB",
    "MODELS",
    "Machine",
    "MemoryChunk",
    "ModelSpec",
    "OPT_13B",
    "OPT_175B_4BIT",
    "OPT_30B",
    "OPT_66B",
    "PipeLLMConfig",
    "PipeLLMRuntime",
    "TelemetryHub",
    "__version__",
    "build_machine",
    "chrome_trace",
    "default_params",
    "recording",
]
