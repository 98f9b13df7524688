"""Unit tests for the adaptive IV-leeway controller (extension).

The controller's contract: multiplicative increase on staleness
deaths, slow decay on staged commits, floored by the EMA of small
transfers per swap, capped at 64.
"""

import pytest

from repro.cc import CcMode, build_machine
from repro.core import PipeLLMConfig, PipeLLMRuntime
from repro.hw import MB, MemoryChunk

KV = 2 * MB


def make(**cfg):
    machine = build_machine(CcMode.ENABLED, enc_threads=2, dec_threads=2)
    runtime = PipeLLMRuntime(machine, PipeLLMConfig(**cfg))
    return machine, runtime


class TestControllerMechanics:
    def test_starts_at_configured_leeway(self):
        _, runtime = make(leeway=4)
        assert runtime._leeway() >= 4

    def test_bump_doubles(self):
        _, runtime = make()
        runtime._leeway_value = 16.0
        runtime._bump_leeway()
        assert runtime._leeway_value == pytest.approx(32.0)

    def test_bump_has_floor(self):
        _, runtime = make()
        runtime._leeway_value = 0.0
        runtime._bump_leeway()
        assert runtime._leeway_value >= 8.0

    def test_bump_capped(self):
        _, runtime = make()
        runtime._leeway_value = 60.0
        runtime._bump_leeway()
        assert runtime._leeway_value == 64.0

    def test_fixed_mode_ignores_controller(self):
        _, runtime = make(adaptive_leeway=False, leeway=5)
        runtime._leeway_value = 1000.0
        assert runtime._leeway() == 5

    def test_ema_floor(self):
        _, runtime = make()
        runtime._leeway_ema = 12.0
        runtime._leeway_value = 0.0
        assert runtime._leeway() == 12


class TestControllerEndToEnd:
    def test_small_transfer_bursts_raise_leeway(self):
        """Interleaving many small transfers between swaps must drive
        the working leeway up (via EMA and/or stale bumps)."""
        machine, runtime = make()
        kv = machine.host_memory.allocate(KV, "kv.0")
        machine.gpu._contents["kv.0"] = b"x"
        small = machine.host_memory.allocate(1024, "tok", b"t")

        def app(sim):
            # Establish the prediction.
            handle = runtime.memcpy_d2h(MemoryChunk(kv.addr, KV, b"", "kv.0"))
            yield handle.api_done
            yield runtime.synchronize()
            yield sim.timeout(0.05)
            for round_index in range(6):
                for _ in range(10):
                    yield runtime.memcpy_h2d(
                        machine.host_memory.chunk_at(small.addr)
                    ).complete
                # Swap in, then immediately back out for the next round.
                yield runtime.cpu_access(kv.addr)
                handle = runtime.memcpy_h2d(machine.host_memory.chunk_at(kv.addr))
                yield handle.api_done
                yield runtime.synchronize()
                handle = runtime.memcpy_d2h(MemoryChunk(kv.addr, KV, b"", "kv.0"))
                yield handle.api_done
                yield runtime.synchronize()
                yield sim.timeout(0.05)

        machine.sim.process(app(machine.sim))
        machine.run()
        assert machine.gpu.auth_failures == 0
        # ~10 smalls between consecutive swaps: the leeway followed.
        assert runtime._leeway() >= 5

    def test_steady_swaps_keep_leeway_low(self):
        machine, runtime = make()
        layers = [
            machine.host_memory.allocate(KV, f"layer.{i}", b"w") for i in range(3)
        ]
        runtime.hint_weight_chunk_size(KV)

        def app(sim):
            for _ in range(6):
                for region in layers:
                    handle = runtime.memcpy_h2d(machine.host_memory.chunk_at(region.addr))
                    yield handle.complete
                    yield sim.timeout(1e-3)

        machine.sim.process(app(machine.sim))
        machine.run()
        assert machine.gpu.auth_failures == 0
        # No small traffic and in-order hits: no reason for headroom.
        assert runtime._leeway() <= 8
