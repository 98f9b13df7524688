"""CPU cryptographic engine: worker-thread pools with calibrated cost.

The paper's bottleneck is that CUDA's CC path runs AES-GCM on *one*
CPU thread inside the blocking memcpy call (≈6.4 GB/s, Fig. 2). Both
the CC baseline with extra threads (Fig. 9's "CC-4t") and PipeLLM's
multi-threaded speculative encryption (§7.2) are expressed here as
:class:`CryptoEngine` configurations:

* ``submit_encrypt(nbytes)`` — queue one chunk on one worker (FIFO).
* ``submit_encrypt_parallel(nbytes, ways)`` — split one chunk across
  several workers (PipeLLM does this for model offloading, where a
  single layer must be produced faster than one thread's rate).

The engine only models *time*; the matching functional AES-GCM calls
happen in the channel layer. Both layers share the same notion of
"one encryption consumed one IV".
"""

from __future__ import annotations

from typing import Optional

from ..sim import Event, Simulator, SpanTracer, WorkerPool
from .params import HardwareParams

__all__ = ["CryptoEngine"]


class CryptoEngine:
    """Encryption and decryption thread pools for one CVM."""

    def __init__(
        self,
        sim: Simulator,
        params: HardwareParams,
        enc_threads: int = 1,
        dec_threads: int = 1,
        faults=None,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        if enc_threads < 1 or dec_threads < 1:
            raise ValueError("thread counts must be >= 1")
        self.sim = sim
        self.params = params
        self.enc_threads = enc_threads
        self.dec_threads = dec_threads
        #: Optional :class:`repro.faults.FaultInjector`: worker stalls
        #: and slowdowns are applied to every submission's service time.
        self.faults = faults
        self._enc_pool = WorkerPool(sim, enc_threads, name="enc", tracer=tracer)
        self._dec_pool = WorkerPool(sim, dec_threads, name="dec", tracer=tracer)
        self.bytes_encrypted = 0
        self.bytes_decrypted = 0

    def _service(self, service: float, pool: str) -> float:
        """Nominal service time, distorted by the fault plane if any."""
        if self.faults is None:
            return service
        return self.faults.engine_service_time(service, pool)

    # -- encryption ------------------------------------------------------

    def submit_encrypt(self, nbytes: int, urgent: bool = False) -> Event:
        """Queue one chunk on one encryption worker; event on completion."""
        self.bytes_encrypted += nbytes
        return self._enc_pool.submit(
            self._service(self.params.enc_time(nbytes, threads=1), "enc"),
            payload=nbytes, urgent=urgent,
        )

    def submit_encrypt_inline_cc(self, nbytes: int) -> Event:
        """One chunk with the CC baseline's coupled control+AES cost.

        Used for traffic that PipeLLM does not pipeline (small control
        transfers, on-demand misses' API-visible portion).
        """
        self.bytes_encrypted += nbytes
        service = self.params.cc_control_latency + nbytes / self.params.enc_bandwidth_per_thread
        return self._enc_pool.submit(self._service(service, "enc"), payload=nbytes, urgent=True)

    def submit_decrypt_inline_cc(self, nbytes: int) -> Event:
        """Synchronous CPU decryption with the CC baseline's cost."""
        self.bytes_decrypted += nbytes
        service = self.params.cc_control_latency + nbytes / self.params.dec_bandwidth_per_thread
        return self._dec_pool.submit(self._service(service, "dec"), payload=nbytes, urgent=True)

    def submit_encrypt_parallel(
        self, nbytes: int, ways: int = 0, urgent: bool = False, front: bool = False
    ) -> Event:
        """Split one chunk across ``ways`` workers (default: all of them).

        Completion fires when every slice is done. Splitting only
        helps while workers are otherwise idle — under a saturated
        queue aggregate throughput is the same, exactly as with real
        threads.
        """
        self.bytes_encrypted += nbytes
        return self._parallel(self._enc_pool, self.params.enc_time, nbytes, ways, urgent, front)

    # -- decryption ---------------------------------------------------------

    def submit_decrypt(self, nbytes: int) -> Event:
        """Queue one chunk on one decryption worker."""
        self.bytes_decrypted += nbytes
        return self._dec_pool.submit(
            self._service(self.params.dec_time(nbytes, threads=1), "dec"), payload=nbytes
        )

    def submit_decrypt_parallel(
        self, nbytes: int, ways: int = 0, urgent: bool = False, front: bool = False
    ) -> Event:
        self.bytes_decrypted += nbytes
        return self._parallel(self._dec_pool, self.params.dec_time, nbytes, ways, urgent, front)

    def _parallel(
        self, pool: WorkerPool, cost, nbytes: int, ways: int, urgent: bool, front: bool
    ) -> Event:
        """Hand ``ways`` equal slices of one chunk to ``pool`` at once."""
        ways = max(1, min(ways or pool.workers, pool.workers))
        service = cost(int(nbytes / ways), threads=1)
        return pool.submit_all(
            [self._service(service, pool.name) for _ in range(ways)], urgent=urgent, front=front
        )

    # -- introspection ----------------------------------------------------------

    def utilization(self, horizon: float) -> float:
        """Fraction of total worker-seconds spent busy up to ``horizon``."""
        if horizon <= 0:
            return 0.0
        busy = self._enc_pool.busy_seconds + self._dec_pool.busy_seconds
        return busy / (horizon * (self.enc_threads + self.dec_threads))

