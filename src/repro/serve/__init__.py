"""Online serving front end over the confidential cluster.

The last layer of the stack: an OpenAI-style request/response surface
(:mod:`~repro.serve.api`), trace-driven open-loop load generation
(:mod:`~repro.serve.load`), SLO-aware admission control
(:mod:`~repro.serve.admission`), and the :class:`ServeFrontend` that
wires them onto :class:`repro.cluster.Gateway` with per-token
streaming telemetry.
"""

from .admission import (
    AdmissionPolicy,
    FifoAdmission,
    SloAdmission,
    SloSpec,
    make_admission,
)
from .api import (
    TIERS,
    CompletionRequest,
    CompletionResponse,
    StreamChunk,
    Usage,
)
from .frontend import ServeFrontend, ServeResult, run_serve
from .load import DEFAULT_TIER_MIX, LoadSpec, generate_load

__all__ = [
    "TIERS",
    "DEFAULT_TIER_MIX",
    "AdmissionPolicy",
    "CompletionRequest",
    "CompletionResponse",
    "FifoAdmission",
    "LoadSpec",
    "ServeFrontend",
    "ServeResult",
    "SloAdmission",
    "SloSpec",
    "StreamChunk",
    "Usage",
    "generate_load",
    "make_admission",
    "run_serve",
]
