"""The attested machine lifecycle every fleet member shares.

An :class:`Incarnation` is one CVM+GPU machine on the fleet's shared
simulator, seen across its whole life: boot, serve, crash, re-attest,
serve again. Each bring-up is a new *epoch* with its own attested
:class:`repro.cc.Machine`, whose handshake seeds are derived from the
machine's label and epoch (``b"cvm:" + b"r0.e2"`` and so on), so every
incarnation gets a fresh CVM↔GPU session key and fresh IV streams. A
recovered machine can therefore never reuse an IV under a key it used
before the crash.

A crash interrupts the serving loop, hands every resident request
back to the fleet's front door (:meth:`crash` returns the orphans),
and drops all incarnation-local state: caches, queues and retained KV
copies. Busy time and GCM auth failures are carried across epochs, so
a run's totals count every machine that ever served.

Subclasses (:class:`~repro.cluster.replica.Replica`,
:class:`~repro.disagg.workers.PrefillWorker`,
:class:`~repro.disagg.workers.DecodeWorker`) provide the empty serving
state (``_boot_state``), the orphan sweep (``_orphans``), the serving
loop (``_loop``) and the ``outstanding`` load signal.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from ..cc import CcMode, Machine, build_attested_machine
from ..hw import HardwareParams, default_params
from ..models import KvGeometry, LayerWork, ModelSpec, TransformerCostModel
from ..sim import Simulator
from ..tracing import active_collector

__all__ = ["Incarnation", "IncarnationDead"]


class IncarnationDead(RuntimeError):
    """A request was submitted to a crashed machine."""


class Incarnation:
    """One fleet machine across its attested incarnations."""

    #: "replica", "prefill" or "decode"; its first letter prefixes the label.
    kind = "machine"

    def __init__(
        self,
        sim: Simulator,
        replica_id: int,
        spec: ModelSpec,
        system: str = "pipellm",
        reserve_bytes: int = 4 << 30,
        params: Optional[HardwareParams] = None,
        faults=None,
    ) -> None:
        self.sim = sim
        #: Index within the machine's pool (what routing policies rank).
        self.replica_id = replica_id
        self.spec = spec
        self.system = system
        self.reserve_bytes = reserve_bytes
        self.params = params or default_params()
        #: Optional :class:`repro.faults.FaultInjector` for this machine,
        #: shared across incarnations (each boot rebinds it to the fresh
        #: machine, so fault streams continue deterministically).
        self.faults = faults
        self.cost = TransformerCostModel(spec)
        self.geometry = KvGeometry(spec)

        self.epoch = 0
        self.alive = False
        self.crashes = 0
        self.completed = 0
        self._busy_acc = 0.0
        self._auth_failures_acc = 0

        self.machine: Optional[Machine] = None
        self.boot()

    @property
    def label(self) -> str:
        """Stable fleet-wide name ("r0", "p1", "d2", ...)."""
        return f"{self.kind[0]}{self.replica_id}"

    @property
    def incarnation(self) -> str:
        """This epoch's name, e.g. ``"decode-1.e2"``."""
        return f"{self.kind}-{self.replica_id}.e{self.epoch}"

    # -- lifecycle -------------------------------------------------------

    def boot(self) -> None:
        """Bring up a fresh incarnation: attested machine, empty state."""
        self.epoch += 1
        if self.system == "native":
            self.machine = Machine(
                CcMode.DISABLED, params=self.params, sim=self.sim, faults=self.faults
            )
        else:
            suffix = f"{self.label}.e{self.epoch}".encode()
            self.machine = build_attested_machine(
                params=self.params,
                sim=self.sim,
                device_id=f"gpu-{self.label}",
                host_seed=b"cvm:" + suffix,
                device_seed=b"dev:" + suffix,
                faults=self.faults,
            )
        self.machine.telemetry.label = self.incarnation
        self._boot_state()
        self.alive = True
        self._wake = self.sim.event()
        self._loop_proc = self.sim.process(self._loop(self.epoch))

    def crash(self) -> List[Any]:
        """Kill this incarnation; returns every orphaned request."""
        if not self.alive:
            return []
        self.alive = False
        self.crashes += 1
        self._busy_acc += self.machine.gpu.compute_seconds
        self._auth_failures_acc += self.machine.gpu.auth_failures
        if self._loop_proc.is_alive:
            self._loop_proc.interrupt("crash")
        return self._orphans()

    def recover(self) -> None:
        """Re-attest and rejoin the fleet as a fresh incarnation."""
        if not self.alive:
            self.boot()

    @property
    def busy_seconds(self) -> float:
        """GPU-busy seconds over every incarnation so far."""
        current = self.machine.gpu.compute_seconds if self.alive else 0.0
        return self._busy_acc + current

    @property
    def auth_failures(self) -> int:
        """GCM tag-validation failures over every incarnation so far."""
        current = self.machine.gpu.auth_failures if self.alive else 0
        return self._auth_failures_acc + current

    # -- serving-loop helpers ---------------------------------------------

    def _enqueue(self, creq, state: str) -> None:
        """Accept one request into the local queue and wake the loop."""
        if not self.alive:
            raise IncarnationDead(f"{self.incarnation} is down")
        creq.state = state
        self._queue.append(creq)
        self._kick()

    def _kick(self) -> None:
        if not self._wake.triggered:
            self._wake.succeed()

    def _idle(self):
        """A fresh wake event for the loop to park on until kicked."""
        self._wake = self.sim.event()
        return self._wake

    def _compute(
        self, work: LayerWork, lane: str, step: str,
        traces: Callable[[], Iterable[Any]],
    ):
        """Run one GPU step, then record it on the tracer ``lane`` and,
        when a collector is active, as a compute span on every live
        causal context ``traces()`` returns."""
        sim = self.sim
        start = sim.now
        yield self.machine.gpu.compute(work.flops, work.bytes_touched, layers=work.layers)
        sim.tracer.record(lane, step, start, sim.now)
        collector = active_collector()
        if collector is not None and sim.now > start:
            for ctx in traces():
                if ctx is not None:
                    collector.add(ctx, step, "compute", self.incarnation, start, sim.now)

    # -- subclass surface -------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Requests resident on this machine (the placement load signal)."""
        raise NotImplementedError

    def _boot_state(self) -> None:
        raise NotImplementedError

    def _orphans(self) -> List[Any]:
        raise NotImplementedError

    def _loop(self, epoch: int):
        raise NotImplementedError

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return (
            f"{type(self).__name__}({self.replica_id}, {state}, "
            f"epoch={self.epoch}, outstanding={self.outstanding})"
        )
