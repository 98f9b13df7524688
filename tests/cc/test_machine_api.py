"""Tests for machine assembly and the baseline CUDA-like runtimes."""

import pytest

from repro.cc import CcMode, CudaContext, Machine, build_machine
from repro.hw import MB, MemoryChunk


def make(mode, **kwargs):
    machine = build_machine(mode, **kwargs)
    return machine, CudaContext(machine)


class TestMachine:
    def test_disabled_has_no_endpoints(self):
        machine = build_machine(CcMode.DISABLED)
        assert machine.cpu_endpoint is None
        assert machine.gpu.endpoint is None
        assert not machine.cc_enabled

    def test_enabled_has_synced_endpoints(self):
        machine = build_machine(CcMode.ENABLED)
        assert machine.cpu_endpoint.tx_iv.current == machine.gpu.endpoint.rx_iv.current
        assert machine.gpu.endpoint.tx_iv.current == machine.cpu_endpoint.rx_iv.current

    def test_machines_are_isolated(self):
        a = build_machine(CcMode.ENABLED)
        b = build_machine(CcMode.ENABLED)
        a.cpu_endpoint.encrypt_next(b"x")
        assert b.cpu_endpoint.tx_iv.current == 1

    def test_thread_configuration(self):
        machine = build_machine(CcMode.ENABLED, enc_threads=4, dec_threads=2)
        assert machine.engine.enc_threads == 4
        assert machine.engine.dec_threads == 2


class TestPlainRuntime:
    def test_h2d_functional(self):
        machine, ctx = make(CcMode.DISABLED)
        region = machine.host_memory.allocate(1 * MB, "w", b"weights")

        def app():
            handle = ctx.memcpy_h2d(region.chunk())
            yield handle.complete

        machine.sim.process(app())
        machine.run()
        assert machine.gpu.read_plaintext("w") == b"weights"

    def test_h2d_api_returns_fast(self):
        machine, ctx = make(CcMode.DISABLED)
        region = machine.host_memory.allocate(32 * MB, "w", b"x")
        times = {}

        def app():
            handle = ctx.memcpy_h2d(region.chunk())
            yield handle.api_done
            times["api"] = machine.sim.now
            yield handle.complete
            times["complete"] = machine.sim.now

        machine.sim.process(app())
        machine.run()
        assert times["api"] == pytest.approx(1.4e-6)
        assert times["complete"] == pytest.approx(
            machine.params.ncc_occupancy(32 * MB), rel=0.01
        )

    def test_d2h_functional(self):
        machine, ctx = make(CcMode.DISABLED)
        src = machine.host_memory.allocate(1 * MB, "kv", b"kv-bytes")
        dst = machine.host_memory.allocate(1 * MB, "out", b"")

        def app():
            yield ctx.memcpy_h2d(src.chunk()).complete
            yield ctx.memcpy_d2h(MemoryChunk(dst.addr, 1 * MB, b"", "kv")).complete

        machine.sim.process(app())
        machine.run()
        assert machine.host_memory.read(dst.addr) == b"kv-bytes"


class TestCcRuntime:
    def test_h2d_blocks_on_encryption(self):
        machine, ctx = make(CcMode.ENABLED)
        region = machine.host_memory.allocate(32 * MB, "w", b"x")
        times = {}

        def app():
            handle = ctx.memcpy_h2d(region.chunk())
            yield handle.api_done
            times["api"] = machine.sim.now

        machine.sim.process(app())
        machine.run()
        assert times["api"] == pytest.approx(machine.params.cc_occupancy(32 * MB), rel=0.01)

    def test_h2d_functional_authenticated(self):
        machine, ctx = make(CcMode.ENABLED)
        region = machine.host_memory.allocate(1 * MB, "w", b"secret")

        def app():
            yield ctx.memcpy_h2d(region.chunk()).complete

        machine.sim.process(app())
        machine.run()
        assert machine.gpu.read_plaintext("w") == b"secret"
        assert machine.gpu.auth_failures == 0

    def test_d2h_roundtrip(self):
        machine, ctx = make(CcMode.ENABLED)
        src = machine.host_memory.allocate(1 * MB, "kv", b"kv-data")
        dst = machine.host_memory.allocate(1 * MB, "out", b"")

        def app():
            yield ctx.memcpy_h2d(src.chunk()).complete
            yield ctx.memcpy_d2h(MemoryChunk(dst.addr, 1 * MB, b"", "kv")).complete

        machine.sim.process(app())
        machine.run()
        assert machine.host_memory.read(dst.addr) == b"kv-data"

    def test_iv_progression_matches_transfers(self):
        machine, ctx = make(CcMode.ENABLED)
        regions = [machine.host_memory.allocate(1 * MB, f"w{i}", b"x") for i in range(3)]

        def app():
            for region in regions:
                ctx.memcpy_h2d(region.chunk())
            yield ctx.synchronize()

        machine.sim.process(app())
        machine.run()
        assert machine.cpu_endpoint.tx_iv.consumed == 3
        assert machine.gpu.endpoint.rx_iv.consumed == 3

    def test_multi_thread_cc_keeps_iv_order(self):
        """Several transfers of different sizes on a 4-thread CC
        machine must still authenticate — the wire stays IV-ordered
        even when the encryptions overlap (this caught a real bug)."""
        machine, ctx = make(CcMode.ENABLED, enc_threads=4, dec_threads=4)
        sizes = [8 * MB, 1 * MB, 4 * MB, 2 * MB]
        regions = [
            machine.host_memory.allocate(size, f"w{i}", f"w{i}".encode())
            for i, size in enumerate(sizes)
        ]

        def app():
            for region in regions:
                ctx.memcpy_h2d(region.chunk())
            yield ctx.synchronize()

        machine.sim.process(app())
        machine.run()
        assert machine.gpu.auth_failures == 0
        assert machine.gpu.read_plaintext("w3") == b"w3"


class TestRuntimeCommon:
    def test_synchronize_waits_everything(self):
        machine, ctx = make(CcMode.DISABLED)
        regions = [machine.host_memory.allocate(8 * MB, f"w{i}", b"x") for i in range(3)]
        times = {}

        def app():
            handles = [ctx.memcpy_h2d(r.chunk()) for r in regions]
            yield ctx.synchronize()
            times["sync"] = machine.sim.now
            assert all(h.complete.triggered for h in handles)

        machine.sim.process(app())
        machine.run()
        assert "sync" in times

    def test_trace_records_everything(self):
        # The runtime keeps no history of its own: each transfer is
        # recorded once, on the PCIe bus log.
        machine, ctx = make(CcMode.DISABLED)
        region = machine.host_memory.allocate(1 * MB, "w", b"x")

        def app():
            yield ctx.memcpy_h2d(region.chunk()).complete

        machine.sim.process(app())
        machine.run()
        assert [(r.direction, r.nbytes) for r in machine.pcie.bus_log] == [("h2d", 1 * MB)]

    def test_cpu_access_is_immediate_for_baselines(self):
        machine, ctx = make(CcMode.ENABLED)
        event = ctx.cpu_access(12345)
        assert event.triggered

    def test_hints_are_accepted(self):
        machine, ctx = make(CcMode.DISABLED)
        ctx.hint_weight_chunk_size(1 * MB)  # no-op, must not raise
        ctx.hint_kv_block_size(2 * MB)
