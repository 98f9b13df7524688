"""Inter-GPU interconnect: direct P2P, or CPU bounce buffers under CC.

With confidential computing disabled the GPUs talk over an NVLink-class
peer-to-peer fabric: one hop is a fixed latency plus bytes over a fat
pipe. Enabling CC forbids P2P — the "serialized bridge" measured by
arXiv 2606.23969 — and every hop must round-trip through the CVM:

    GPU src --(copy-engine encrypt, up-link key)--> host bounce buffer
            --(CPU decrypt, CPU re-encrypt under the down-link key)-->
            --(copy-engine decrypt, GPU dst)

Each *directed* link gets two independent :class:`SecureSession`s (the
up and down legs have separate keys and IV streams, all HKDF-chained
off the machine's session key — see
:func:`repro.crypto.handshake.derive_link_session`), so no (key, IV)
pair is ever shared between links and a per-link IV audit has one
monotone lane per stream.

The CPU crypto in the middle is where PipeLLM bites. Two strategies:

* **serialized** (the CC baseline): each hop blocks on an inline
  control+decrypt and an inline control+re-encrypt, CUDA-style, on the
  machine's (often single-thread) crypto pools — collective steps on
  different links contend for the same CPU threads, which is what
  collapses multi-GPU scaling.
* **staged** (PipeLLM): collective schedules are deterministic, so a
  speculator that has seen the schedule predicts each hop's (link, IV)
  in advance. The host pre-arranges its per-chunk pipeline: one
  control-plane charge, both DMA legs streamed back to back, and the
  chunked decrypt→re-encrypt running on the worker pools *concurrently
  with the down leg* — off the critical path whenever enough threads
  are configured. A mispredicted hop ("miss") discards the staged
  ciphertext before the wire (IV streams stay synchronized) and falls
  back to the serialized path.

Functional crypto (real AES-GCM under per-link keys) runs at hop
submission in process-creation order, so concurrent hops on one link
consume IVs in a deterministic, monotone order no matter how their
timing legs interleave.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..crypto import SessionEndpoint, derive_link_session
from ..sim import BandwidthPipe, Event, Simulator
from ..telemetry import LinkEvent, trace_collector
from ..telemetry.hub import timed_stage
from .engine import CryptoEngine
from .gpu import GpuEnclave
from .params import HardwareParams
from .pcie import replayed

__all__ = ["Interconnect", "LinkRecord"]


@dataclass(frozen=True)
class LinkRecord:
    """What a fabric snooper sees of one inter-GPU hop (metadata only)."""

    time: float
    src: int
    dst: int
    nbytes: int
    #: "p2p" | "bounce"
    mode: str
    #: "" (p2p) | "serialized" | "staged" | "miss"
    strategy: str


class _Link:
    """Crypto state of one directed link: two sessions, four endpoints."""

    def __init__(self, root_key: bytes, src: int, dst: int) -> None:
        self.src = src
        self.dst = dst
        self.label = f"{src}->{dst}"
        up = derive_link_session(root_key, f"link:{self.label}:up")
        down = derive_link_session(root_key, f"link:{self.label}:down")
        # Up leg: GPU src's copy engine -> host bounce buffer. The GPU
        # side transmits on its d2h stream, the host receives on it.
        self.host_up, self.gpu_up = up.endpoints(
            cpu_name=f"host.link.{self.label}.up",
            gpu_name=f"gpu{src}.link.{self.label}.up",
        )
        # Down leg: host re-encrypt -> GPU dst's copy engine.
        self.host_down, self.gpu_down = down.endpoints(
            cpu_name=f"host.link.{self.label}.down",
            gpu_name=f"gpu{dst}.link.{self.label}.down",
        )
        self.hops = 0

    def endpoints(self) -> Tuple[SessionEndpoint, ...]:
        return (self.host_up, self.gpu_up, self.host_down, self.gpu_down)


class Interconnect:
    """The inter-GPU fabric of one multi-GPU machine."""

    def __init__(
        self,
        sim: Simulator,
        params: HardwareParams,
        gpus: Sequence[GpuEnclave],
        cc_enabled: bool,
        root_key: Optional[bytes] = None,
        engine: Optional[CryptoEngine] = None,
        faults=None,
        telemetry=None,
    ) -> None:
        if len(gpus) < 2:
            raise ValueError("an interconnect needs at least two GPUs")
        if cc_enabled and (root_key is None or engine is None):
            raise ValueError("CC mode requires a root key and a crypto engine")
        self.sim = sim
        self.params = params
        self.gpus = list(gpus)
        self.cc_enabled = cc_enabled
        self.root_key = root_key
        self.engine = engine
        #: Optional :class:`repro.faults.FaultInjector` for link faults.
        self.faults = faults
        #: Optional :class:`repro.telemetry.TelemetryHub` (the machine's).
        self.telemetry = telemetry
        #: Optional link speculator (``repro.parallel.speculate``), duck-typed:
        #: ``lookup(src, dst, nbytes) -> bool`` (staged hit) and ``hit_rate``.
        self.speculator = None
        self._audit = None
        self._tracer = telemetry.tracer if telemetry is not None else None
        # Every GPU owns its own CPU<->GPU bounce path (each device has
        # a dedicated PCIe link to the host), modeled per direction at
        # the CC-mode DMA ceiling.
        self.bounce_up = [
            BandwidthPipe(sim, params.cc_dma_bandwidth, latency=params.dma_overhead,
                          name=f"link.gpu{i}.up", tracer=self._tracer)
            for i in range(len(self.gpus))
        ]
        self.bounce_down = [
            BandwidthPipe(sim, params.cc_dma_bandwidth, latency=params.dma_overhead,
                          name=f"link.gpu{i}.down", tracer=self._tracer)
            for i in range(len(self.gpus))
        ]
        self._p2p: Dict[Tuple[int, int], BandwidthPipe] = {}
        self._links: Dict[Tuple[int, int], _Link] = {}
        #: Fabric-snooper metadata log (the §8.1 attacker's view).
        self.link_log: List[LinkRecord] = []
        self.hops = 0
        self.p2p_bytes = 0
        self.bounce_bytes = 0
        #: Monotone hop counter for deterministic per-hop trace ids.
        self._trace_seq = 0
        #: Mints per-hop root traces; None unless built while recording.
        self._collector = trace_collector(sim)

    # -- wiring ----------------------------------------------------------

    def attach_speculator(self, speculator) -> None:
        """Install the PipeLLM-style link speculator (None = baseline)."""
        self.speculator = speculator

    def attach_audit(self, audit) -> None:
        """Report every link endpoint's consumed IVs to an IV audit.

        Applies to existing links and to links derived later.
        """
        self._audit = audit
        for link in self._links.values():
            for endpoint in link.endpoints():
                endpoint.attach_audit(audit)

    def link(self, src: int, dst: int) -> _Link:
        """The directed link's crypto state (derived lazily, once)."""
        key = (src, dst)
        if key not in self._links:
            link = _Link(self.root_key, src, dst)
            if self._audit is not None:
                for endpoint in link.endpoints():
                    endpoint.attach_audit(self._audit)
            self._links[key] = link
        return self._links[key]

    def links(self) -> List[_Link]:
        """Every link derived so far (for audits and introspection)."""
        return list(self._links.values())

    def pipes(self) -> List[BandwidthPipe]:
        """All fabric pipes (bounce legs + any P2P pairs), for metrics."""
        return [*self.bounce_up, *self.bounce_down, *self._p2p.values()]

    def _p2p_pipe(self, src: int, dst: int) -> BandwidthPipe:
        key = (src, dst)
        if key not in self._p2p:
            self._p2p[key] = BandwidthPipe(
                self.sim, self.params.p2p_bandwidth, latency=self.params.p2p_latency,
                name=f"link.p2p.{src}-{dst}", tracer=self._tracer,
            )
        return self._p2p[key]

    # -- transfers -------------------------------------------------------

    def transfer(self, src: int, dst: int, payload: bytes, nbytes: int = 0,
                 tag: str = "", collective: str = "") -> Event:
        """Move ``payload`` from GPU ``src`` to GPU ``dst``.

        Returns a completion event whose value is the delivered
        plaintext; with a ``tag`` the payload also lands in the
        destination GPU's device memory. ``nbytes`` is the logical
        transfer size when ``payload`` is a small stand-in for a large
        tensor (the usual case: timing follows ``nbytes``, crypto runs
        on the real ``payload`` bytes).
        """
        if src == dst:
            raise ValueError("transfer requires distinct GPUs")
        if not (0 <= src < len(self.gpus) and 0 <= dst < len(self.gpus)):
            raise ValueError("GPU index out of range")
        nbytes = nbytes or len(payload)
        if self.cc_enabled:
            return self.sim.process(self._bounce_hop(src, dst, payload, nbytes, tag, collective))
        return self.sim.process(self._p2p_hop(src, dst, payload, nbytes, tag, collective))

    def _finish_hop(self, start: float, src: int, dst: int, nbytes: int,
                    mode: str, strategy: str, collective: str, record,
                    root=None) -> None:
        self.link_log.append(LinkRecord(start, src, dst, nbytes, mode, strategy))
        hub = self.telemetry
        if hub is not None:
            hub.metrics.counter("interconnect.hops").add()
            hub.metrics.counter(f"interconnect.{mode}_bytes").add(nbytes)
            if hub.enabled:
                hub.emit(LinkEvent(self.sim.now, src, dst, nbytes, mode,
                                   strategy, collective))
            if record is not None:
                hub.mark_api_done(record, self.sim.now)
                hub.mark_complete(record, self.sim.now)
        if root is not None:
            root.collector.end(root, self.sim.now)

    def _begin_record(self, dst: int, nbytes: int, tag: str):
        hub = self.telemetry
        if hub is None or not hub.enabled:
            return None
        return hub.begin_request("link", addr=dst, size=nbytes,
                                 time=self.sim.now, tag=tag)

    def _begin_hop_trace(self, record, src: int, dst: int):
        """Mint a per-hop root trace for fabric hops no request owns.

        Hops issued under a bound request trace already carry that
        context on their lifecycle record; everything else (collective
        steps in the parallel engines) gets its own deterministic
        ``<machine>.hop-<n>`` trace so attribution covers the fabric.
        """
        if record is None or record.trace is not None or self._collector is None:
            return None
        label = self.telemetry.label or "fabric"
        self._trace_seq += 1
        root = self._collector.begin(
            None, f"hop {src}->{dst}", "request", label, self.sim.now,
            trace_id=f"{label}.hop-{self._trace_seq}",
        )
        record.trace = root
        return root

    def _p2p_hop(self, src, dst, payload, nbytes, tag, collective):
        start = self.sim.now
        record = self._begin_record(dst, nbytes, tag)
        root = self._begin_hop_trace(record, src, dst)
        self.hops += 1
        self.p2p_bytes += nbytes
        yield from timed_stage(self.sim, record, "interconnect",
                               self._leg(self._p2p_pipe(src, dst), nbytes, f"p2p:{src}->{dst}"))
        if record is not None:
            record.kind = "link"
            record.strategy = "native"
        if tag:
            self.gpus[dst].store_plaintext(tag, payload)
        self._finish_hop(start, src, dst, nbytes, "p2p", "", collective, record,
                         root=root)
        return payload

    def _bounce_hop(self, src, dst, payload, nbytes, tag, collective):
        sim = self.sim
        start = sim.now
        link = self.link(src, dst)
        link.hops += 1
        self.hops += 1
        self.bounce_bytes += nbytes
        record = self._begin_record(dst, nbytes, tag)
        root = self._begin_hop_trace(record, src, dst)

        staged = False
        if self.speculator is not None:
            staged = bool(self.speculator.lookup(src, dst, nbytes))
        strategy = ("staged" if staged else "miss") if self.speculator is not None \
            else "serialized"

        # Functional crypto runs up front, in hop-submission order, so
        # concurrent hops on one link keep their encrypt/decrypt pairs
        # matched and every IV lane monotone. (The *time* those
        # operations take is charged below.) A hit commits the
        # speculator's predicted IV as the re-encrypted hop ships; a
        # miss discards whatever was pre-arranged *before* the wire and
        # re-encrypts under the true next IV, so streams never
        # desynchronize (the §4.1 invariant, applied per link).
        message_up = link.gpu_up.encrypt_next(payload, nbytes_logical=nbytes)
        plain = link.host_up.decrypt_next(message_up)
        message_down = link.host_down.seal(plain, staged, nbytes)
        delivered = link.gpu_down.decrypt_next(message_down)

        if record is not None:
            record.kind = "link"
            record.strategy = strategy
            record.commit_iv = message_down.sender_iv
            if staged:
                record.staged_iv = message_down.sender_iv

        if staged:
            # The predicted schedule pre-arranges the control plane and
            # the per-chunk crypto pipeline before the hop arrives, so
            # the critical path is the two DMA legs (§7.2: the residual
            # overhead of the speculated path is DMA bandwidth). The
            # chunked decrypt→re-encrypt runs on the worker pools
            # concurrently with the down leg and still pushes back
            # when the pools saturate.
            t1 = sim.now
            yield self._leg(self.bounce_up[src], nbytes, f"up:{link.label}")
            # Split across workers in ~128 KB slices: wider splits only
            # add per-slice stream overhead for the small ring segments
            # collectives produce (the pools clamp to their width).
            ways = max(1, -(-nbytes // (128 * 1024)))
            crypto = sim.all_of([
                self.engine.submit_decrypt_parallel(nbytes, ways=ways),
                self.engine.submit_encrypt_parallel(nbytes, ways=ways),
            ])
            down = self._leg(self.bounce_down[dst], nbytes, f"down:{link.label}")
            yield sim.all_of([down, crypto])
            # Marked by hand: one stage over two waits (down leg after up).
            if record is not None:
                record.mark_stage("interconnect", t1, sim.now)
        else:
            # The serialized bridge: inline control+AES on each leg,
            # CUDA-style, contending on the machine's crypto pools.
            yield from timed_stage(sim, record, "interconnect",
                                   self._leg(self.bounce_up[src], nbytes, f"up:{link.label}"))
            yield from timed_stage(sim, record, "decrypt",
                                   self.engine.submit_decrypt_inline_cc(nbytes))
            yield from timed_stage(sim, record, "encrypt",
                                   self.engine.submit_encrypt_inline_cc(nbytes))
            yield from timed_stage(sim, record, "interconnect",
                                   self._leg(self.bounce_down[dst], nbytes, f"down:{link.label}"))

        if tag:
            self.gpus[dst].store_plaintext(tag, delivered)
        if self.speculator is not None and self.telemetry is not None:
            self.telemetry.metrics.counter(
                f"interconnect.spec_{'hits' if staged else 'misses'}"
            ).add()
        self._finish_hop(start, src, dst, nbytes, "bounce", strategy, collective,
                         record, root=root)
        return delivered

    # -- fault-aware DMA legs --------------------------------------------

    def _leg(self, pipe: BandwidthPipe, nbytes: int, label: str) -> Event:
        inj = self.faults
        if inj is None or not (inj.plan.link_drop_rate or inj.plan.link_jitter_rate):
            return pipe.transfer(nbytes)
        return replayed(self.sim, pipe, nbytes, inj, inj.link_drop, inj.link_jitter, label)

    # -- introspection ---------------------------------------------------

    def hit_rate(self) -> float:
        """Staged fraction of speculated hops (0.0 with no speculator)."""
        return self.speculator.hit_rate if self.speculator is not None else 0.0
