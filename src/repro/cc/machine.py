"""Assembly of one simulated testbed: CVM + H100 enclave.

A :class:`Machine` wires together the simulator, host memory, PCIe
link, CPU crypto engine, GPU enclave and (when CC is enabled) the
secure session endpoints with synchronized IV streams. Every
experiment builds exactly one machine and runs one serving engine on
it, so machines are cheap, isolated, and deterministic.
"""

from __future__ import annotations

import enum
from typing import Optional

from ..crypto import (
    GOLDEN_MEASUREMENTS,
    GpuDevice,
    RootOfTrust,
    SecureSession,
    SessionEndpoint,
    SessionHandshake,
    derive_link_session,
)
from ..hw import (
    CryptoEngine,
    DmaStaging,
    GpuEnclave,
    HardwareParams,
    HostMemory,
    Interconnect,
    default_params,
)
from ..sim import Simulator
from ..hw.pcie import PcieLink
from ..telemetry import TelemetryHub, register_hub

__all__ = ["CcMode", "Machine", "build_attested_machine", "build_machine"]

#: Deterministic session key for reproducible functional traces.
_DEFAULT_KEY = bytes(range(16))


class CcMode(enum.Enum):
    """Whether NVIDIA Confidential Computing is active on the GPU."""

    DISABLED = "disabled"
    ENABLED = "enabled"


class Machine:
    """One CVM-plus-GPU testbed instance."""

    def __init__(
        self,
        cc_mode: CcMode,
        params: Optional[HardwareParams] = None,
        enc_threads: int = 1,
        dec_threads: int = 1,
        key: bytes = _DEFAULT_KEY,
        session: Optional[SecureSession] = None,
        sim: Optional[Simulator] = None,
        faults=None,
        n_gpus: int = 1,
        label: str = "",
    ) -> None:
        if n_gpus < 1:
            raise ValueError("n_gpus must be >= 1")
        self.params = params or default_params()
        self.cc_mode = cc_mode
        #: A cluster runs many machines inside one shared simulator so
        #: their event timelines interleave; a standalone machine owns
        #: its own kernel.
        self.sim = sim if sim is not None else Simulator()
        # The unified telemetry hub: the machine's metric registry and
        # the span tracer its PCIe pipes, crypto workers and GPUs record
        # into. Disabled unless a recording session is active — the
        # disabled fast path is a single attribute check. It registers
        # under ``label`` (a fleet incarnation's name), so session
        # watchers see the name every export uses.
        self.telemetry = TelemetryHub(
            sim=self.sim, label=label,
            enc_bandwidth=self.params.enc_bandwidth_per_thread,
        )
        self.metrics = self.telemetry.metrics
        tracer = self.telemetry.tracer
        register_hub(self.telemetry)
        #: Optional :class:`repro.faults.FaultInjector`. Binding gives
        #: the injector this machine's clock and hub; the hardware
        #: models below consult it at their injection points and the
        #: PipeLLM runtime picks it up from here for the crypto-plane
        #: faults (tag corruption, IV desync, forced mispredictions).
        self.faults = faults
        if faults is not None:
            faults.bind(self.sim, self.telemetry)
        self.host_memory = HostMemory(
            capacity=self.params.host_memory_bytes, page_size=self.params.page_size
        )
        self.pcie = PcieLink(self.sim, self.params, faults=faults, tracer=tracer)
        self.engine = CryptoEngine(
            self.sim, self.params, enc_threads=enc_threads, dec_threads=dec_threads,
            faults=faults, tracer=tracer,
        )
        self.staging = DmaStaging(self.sim, tracer=tracer)

        self.cpu_endpoint: Optional[SessionEndpoint] = None
        gpu_endpoint: Optional[SessionEndpoint] = None
        if cc_mode is CcMode.ENABLED:
            session = session or SecureSession(key)
            self.cpu_endpoint, gpu_endpoint = session.endpoints()
        self.session = session
        #: One enclave per GPU. GPU 0 keeps the machine's primary
        #: session (and the legacy ``machine.gpu`` name); each extra
        #: GPU gets its own host channel whose session is HKDF-chained
        #: off the primary key, so no two device channels share IVs.
        self.gpus = [GpuEnclave(self.sim, self.params, endpoint=gpu_endpoint, tracer=tracer)]
        self.host_endpoints: list = [self.cpu_endpoint]
        for index in range(1, n_gpus):
            cpu_ep: Optional[SessionEndpoint] = None
            gpu_ep: Optional[SessionEndpoint] = None
            if cc_mode is CcMode.ENABLED:
                gpu_session = derive_link_session(session.key, f"h2d:gpu{index}")
                cpu_ep, gpu_ep = gpu_session.endpoints(
                    cpu_name=f"cpu{index}", gpu_name=f"gpu{index}"
                )
            self.host_endpoints.append(cpu_ep)
            self.gpus.append(
                GpuEnclave(self.sim, self.params, endpoint=gpu_ep, lane=f"gpu{index}",
                           tracer=tracer)
            )
        self.gpu = self.gpus[0]
        #: The inter-GPU fabric; None on single-GPU machines.
        self.interconnect: Optional[Interconnect] = None
        if n_gpus > 1:
            self.interconnect = Interconnect(
                self.sim,
                self.params,
                self.gpus,
                cc_enabled=cc_mode is CcMode.ENABLED,
                root_key=session.key if session is not None else None,
                engine=self.engine,
                faults=faults,
                telemetry=self.telemetry,
            )

    @property
    def cc_enabled(self) -> bool:
        return self.cc_mode is CcMode.ENABLED

    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation."""
        self.sim.run(until=until)


def build_machine(
    cc_mode: CcMode = CcMode.ENABLED,
    params: Optional[HardwareParams] = None,
    enc_threads: int = 1,
    dec_threads: int = 1,
    faults=None,
    n_gpus: int = 1,
) -> Machine:
    """Convenience factory mirroring the paper's three configurations.

    * ``build_machine(CcMode.DISABLED)`` — the "w/o CC" baseline.
    * ``build_machine(CcMode.ENABLED)`` — the "CC" baseline (CUDA
      encrypts inline on one thread; pass ``enc_threads=4`` for the
      Fig. 9 "CC-4t" variant).
    * PipeLLM runs on an ENABLED machine via
      :class:`repro.core.runtime.PipeLLMRuntime`.
    """
    return Machine(cc_mode, params=params, enc_threads=enc_threads,
                   dec_threads=dec_threads, faults=faults, n_gpus=n_gpus)


def build_attested_machine(
    params: Optional[HardwareParams] = None,
    enc_threads: int = 1,
    dec_threads: int = 1,
    device_id: str = "gpu-0",
    host_seed: bytes = b"cvm-driver-seed",
    device_seed: bytes = b"h100-device-seed",
    sim: Optional[Simulator] = None,
    faults=None,
    n_gpus: int = 1,
    label: str = "",
) -> Machine:
    """Full CC bring-up: handshake, attestation, then the machine.

    Runs the SPDM-style exchange of :mod:`repro.crypto.handshake`, has
    the (provisioned) device attest its measurements over the
    transcript, verifies the report against the golden values, and
    only then builds a machine whose session key and starting IVs are
    the handshake-derived ones — the initialization §2.2 presumes.
    Raises :class:`repro.crypto.AttestationError` when the device is
    not genuine.
    """
    driver = SessionHandshake("driver", seed=host_seed)
    gpu = SessionHandshake("gpu", seed=device_seed)
    transcript = driver.transcript(gpu.message())

    root = RootOfTrust()
    device = GpuDevice(device_id, root.provision(device_id))
    report = device.attest(transcript)
    root.verify(report, expected_measurements=GOLDEN_MEASUREMENTS)

    session = driver.complete(gpu.message())
    return Machine(
        CcMode.ENABLED,
        params=params,
        enc_threads=enc_threads,
        dec_threads=dec_threads,
        session=session,
        sim=sim,
        faults=faults,
        n_gpus=n_gpus,
        label=label,
    )
