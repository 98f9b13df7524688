"""Additional PipeLLMRuntime API-surface tests."""

import pytest

from repro.cc import CcMode, build_machine
from repro.core import PipeLLMConfig, PipeLLMRuntime
from repro.hw import MB, MemoryChunk

KV = 2 * MB


def make(**cfg):
    machine = build_machine(CcMode.ENABLED, enc_threads=2, dec_threads=2)
    return machine, PipeLLMRuntime(machine, PipeLLMConfig(**cfg) if cfg else None)


class TestCpuAccess:
    def test_triggered_for_untracked_address(self):
        _, runtime = make()
        assert runtime.cpu_access(123456).triggered

    def test_waits_for_async_decrypt(self):
        machine, runtime = make()
        region = machine.host_memory.allocate(KV, "kv")
        machine.gpu._contents["kv"] = b"data"
        waited = {}

        def app(sim):
            handle = runtime.memcpy_d2h(MemoryChunk(region.addr, KV, b"", "kv"))
            yield handle.complete
            t0 = sim.now
            yield runtime.cpu_access(region.addr)
            waited["stall"] = sim.now - t0

        machine.sim.process(app(machine.sim))
        machine.run()
        assert waited["stall"] > 0

    def test_superseded_swap_out_releases_waiters(self):
        """A second swap-out to the same region must not strand anyone
        waiting on the first pending decrypt (fuzzer-found deadlock)."""
        machine, runtime = make()
        region = machine.host_memory.allocate(KV, "kv")
        machine.gpu._contents["kv"] = b"v2"
        finished = []

        def app(sim):
            first = runtime.memcpy_d2h(MemoryChunk(region.addr, KV, b"v1", "kv"))
            yield first.api_done
            second = runtime.memcpy_d2h(MemoryChunk(region.addr, KV, b"v2", "kv"))
            yield second.api_done
            yield runtime.synchronize()
            yield runtime.cpu_access(region.addr)
            finished.append(machine.host_memory.read(region.addr))

        machine.sim.process(app(machine.sim))
        machine.run()
        assert finished, "cpu_access deadlocked on the superseded pending decrypt"
        assert finished[0] == b"v2"
        assert machine.gpu.auth_failures == 0


class TestFreedRegions:
    def test_free_kills_staged_entry(self):
        machine, runtime = make()
        region = machine.host_memory.allocate(KV, "kv")
        machine.gpu._contents["kv"] = b"x"

        def app(sim):
            handle = runtime.memcpy_d2h(MemoryChunk(region.addr, KV, b"", "kv"))
            yield handle.api_done
            yield runtime.synchronize()
            yield sim.timeout(0.05)  # decrypt lands; chunk gets staged

        machine.sim.process(app(machine.sim))
        machine.run()
        assert runtime.pipeline.find(region.addr, region.size) is not None
        machine.host_memory.free(region)
        assert runtime.pipeline.find(region.addr, region.size) is None

    def test_free_releases_pending_decrypt_waiters(self):
        machine, runtime = make()
        region = machine.host_memory.allocate(KV, "kv")
        machine.gpu._contents["kv"] = b"x"
        done = []

        def app(sim):
            handle = runtime.memcpy_d2h(MemoryChunk(region.addr, KV, b"", "kv"))
            yield handle.complete
            gate = runtime.cpu_access(region.addr)
            machine.host_memory.free(region)  # discarded before decrypt
            yield gate
            done.append(True)

        machine.sim.process(app(machine.sim))
        machine.run()
        assert done
