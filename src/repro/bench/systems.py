"""The systems compared throughout the evaluation (§7.1 baselines).

* ``w/o CC`` — native performance, confidential computing off.
* ``CC`` — NVIDIA Confidential Computing as shipped: inline AES-GCM
  on one CPU thread inside the memcpy path.
* ``CC-4t`` — the Fig. 9 strawman: CC with 4 encryption/decryption
  threads but no pipelining.
* ``PipeLLM`` — speculative pipelined encryption (this paper).
* ``PipeLLM-0`` — the Fig. 10 ablation: sequence prediction always
  wrong (right chunk set, reversed order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..cc import CcMode, CudaContext, DeviceRuntime, Machine
from ..core import PipeLLMConfig, PipeLLMRuntime
from ..hw import HardwareParams

__all__ = [
    "SystemSpec",
    "WITHOUT_CC",
    "CC",
    "cc_threads",
    "pipellm",
    "pipellm_zero",
]


@dataclass(frozen=True)
class SystemSpec:
    """A named, buildable system configuration."""

    name: str
    cc_mode: CcMode
    enc_threads: int = 1
    dec_threads: int = 1
    pipellm_config: Optional[PipeLLMConfig] = None

    @property
    def uses_pipellm(self) -> bool:
        return self.pipellm_config is not None

    def build(
        self, params: Optional[HardwareParams] = None, sim=None, faults=None
    ) -> Tuple[Machine, DeviceRuntime]:
        """Instantiate a fresh machine plus its runtime.

        ``sim`` embeds the machine in an existing simulator (cluster
        replicas share one kernel); None keeps the historical
        one-machine-one-simulator behaviour. ``faults`` threads a
        :class:`repro.faults.FaultInjector` through the machine.
        """
        machine = Machine(
            self.cc_mode,
            params=params,
            enc_threads=self.enc_threads,
            dec_threads=self.dec_threads,
            sim=sim,
            faults=faults,
        )
        # Telemetry traces group machines by system name (e.g. one
        # Perfetto process per "PipeLLM" / "CC" instance).
        machine.telemetry.label = self.name
        if self.uses_pipellm:
            runtime: DeviceRuntime = PipeLLMRuntime(machine, self.pipellm_config)
        else:
            runtime = CudaContext(machine)
        return machine, runtime


WITHOUT_CC = SystemSpec("w/o CC", CcMode.DISABLED)
CC = SystemSpec("CC", CcMode.ENABLED)


def cc_threads(threads: int) -> SystemSpec:
    """The CC baseline with N crypto threads (Fig. 9's "CC-4t")."""
    return SystemSpec(f"CC-{threads}t", CcMode.ENABLED, enc_threads=threads, dec_threads=threads)


def pipellm(
    enc_threads: int = 1,
    dec_threads: int = 1,
    config: Optional[PipeLLMConfig] = None,
    name: str = "PipeLLM",
) -> SystemSpec:
    """PipeLLM over a CC-enabled machine.

    The paper uses multiple encryption threads for model offloading
    (to outrun PCIe) but only 1+1 threads for vLLM KV swapping.
    """
    return SystemSpec(
        name,
        CcMode.ENABLED,
        enc_threads=enc_threads,
        dec_threads=dec_threads,
        pipellm_config=config or PipeLLMConfig(),
    )


def pipellm_zero(enc_threads: int = 1, dec_threads: int = 1) -> SystemSpec:
    """Fig. 10's "PipeLLM-0": zero sequence-prediction success."""
    return pipellm(
        enc_threads,
        dec_threads,
        config=PipeLLMConfig(sabotage="reverse"),
        name="PipeLLM-0",
    )
