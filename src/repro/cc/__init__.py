"""NVIDIA-CC-style secure channel: machine assembly + CUDA-like API."""

from .api import CudaContext, DeviceRuntime, TransferHandle
from .machine import CcMode, Machine, build_attested_machine, build_machine

__all__ = [
    "CcMode",
    "CudaContext",
    "DeviceRuntime",
    "Machine",
    "TransferHandle",
    "build_attested_machine",
    "build_machine",
]
