"""Tests for the crypto engine, GPU enclave, PCIe link and DMA staging."""

import pytest

from repro.crypto import AuthenticationError, SecureSession
from repro.hw import CryptoEngine, DmaStaging, GpuEnclave, GpuOutOfMemory, MB, MemoryChunk, default_params
from repro.hw.pcie import PcieLink
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def params():
    return default_params()


class TestCryptoEngine:
    def test_serial_jobs_queue(self, sim, params):
        engine = CryptoEngine(sim, params, enc_threads=1)
        done = []
        engine.submit_encrypt(1 * MB).add_callback(lambda e: done.append(sim.now))
        engine.submit_encrypt(1 * MB).add_callback(lambda e: done.append(sim.now))
        sim.run()
        single = params.enc_time(1 * MB)
        assert done[0] == pytest.approx(single)
        assert done[1] == pytest.approx(2 * single)

    def test_parallel_split_speeds_up(self, sim, params):
        engine = CryptoEngine(sim, params, enc_threads=4)
        done = []
        engine.submit_encrypt_parallel(4 * MB).add_callback(lambda e: done.append(sim.now))
        sim.run()
        assert done[0] == pytest.approx(params.enc_time(1 * MB), rel=0.01)

    def test_parallel_clamped_to_pool(self, sim, params):
        engine = CryptoEngine(sim, params, enc_threads=2)
        done = []
        engine.submit_encrypt_parallel(4 * MB, ways=16).add_callback(
            lambda e: done.append(sim.now)
        )
        sim.run()
        assert done[0] == pytest.approx(params.enc_time(2 * MB), rel=0.01)

    def test_inline_cc_cost(self, sim, params):
        engine = CryptoEngine(sim, params)
        done = []
        engine.submit_encrypt_inline_cc(1 * MB).add_callback(lambda e: done.append(sim.now))
        sim.run()
        assert done[0] == pytest.approx(params.cc_occupancy(1 * MB))

    def test_byte_accounting(self, sim, params):
        engine = CryptoEngine(sim, params)
        engine.submit_encrypt(100)
        engine.submit_decrypt(200)
        assert engine.bytes_encrypted == 100
        assert engine.bytes_decrypted == 200

    def test_thread_validation(self, sim, params):
        with pytest.raises(ValueError):
            CryptoEngine(sim, params, enc_threads=0)

    def test_utilization(self, sim, params):
        engine = CryptoEngine(sim, params, enc_threads=1, dec_threads=1)
        engine.submit_encrypt(int(params.enc_bandwidth_per_thread))  # ~1 s of work
        sim.run()
        horizon = sim.now
        assert 0.4 < engine.utilization(horizon) <= 0.51  # one of two pools busy


class TestGpuEnclave:
    def test_alloc_free_accounting(self, sim, params):
        gpu = GpuEnclave(sim, params)
        gpu.alloc("weights", 60 << 30)
        assert gpu.used == 60 << 30
        assert gpu.free == params.gpu_memory_bytes - (60 << 30)
        assert gpu.free_alloc("weights") == 60 << 30
        assert gpu.used == 0

    def test_oom(self, sim, params):
        gpu = GpuEnclave(sim, params)
        with pytest.raises(GpuOutOfMemory):
            gpu.alloc("weights", params.gpu_memory_bytes + 1)

    def test_copy_engine_roundtrip(self, sim, params):
        cpu, gpu_end = SecureSession(bytes(16)).endpoints()
        gpu = GpuEnclave(sim, params, endpoint=gpu_end)
        chunk = MemoryChunk(0, 1024, b"layer-0", "layer.0")
        message = cpu.encrypt_next(chunk.payload, nbytes_logical=chunk.size)
        assert gpu.receive_ciphertext(chunk, message) == b"layer-0"
        assert gpu.read_plaintext("layer.0") == b"layer-0"

    def test_copy_engine_detects_desync(self, sim, params):
        cpu, gpu_end = SecureSession(bytes(16)).endpoints()
        gpu = GpuEnclave(sim, params, endpoint=gpu_end)
        chunk = MemoryChunk(0, 1024, b"x", "x")
        cpu.encrypt_next(b"skipped")  # Consumes an IV the GPU never sees.
        message = cpu.encrypt_next(b"x")
        with pytest.raises(AuthenticationError):
            gpu.receive_ciphertext(chunk, message)
        assert gpu.auth_failures == 1

    def test_cc_required_for_ciphertext(self, sim, params):
        gpu = GpuEnclave(sim, params, endpoint=None)
        with pytest.raises(RuntimeError):
            gpu.receive_ciphertext(MemoryChunk(0, 1, b"", "t"), None)

    def test_compute_roofline_compute_bound(self, sim, params):
        gpu = GpuEnclave(sim, params)
        flops = params.gpu.flops  # 1 second of pure compute
        t = gpu.compute_time(flops, bytes_touched=1, layers=0)
        assert t == pytest.approx(1.0)

    def test_compute_roofline_memory_bound(self, sim, params):
        gpu = GpuEnclave(sim, params)
        nbytes = params.gpu.hbm_bandwidth  # 1 second of pure reads
        t = gpu.compute_time(1.0, bytes_touched=nbytes, layers=0)
        assert t == pytest.approx(1.0)

    def test_compute_serializes(self, sim, params):
        gpu = GpuEnclave(sim, params)
        done = []
        flops = params.gpu.flops / 10.0

        def proc(name):
            yield gpu.compute(flops, 1, layers=0)
            done.append((round(sim.now, 6), name))

        sim.process(proc("a"))
        sim.process(proc("b"))
        sim.run()
        assert done == [(0.1, "a"), (0.2, "b")]


class TestPcieLink:
    def test_directions_independent(self, sim, params):
        link = PcieLink(sim, params)
        done = []

        def up():
            yield link.transfer_h2d(int(params.pcie_bandwidth))
            done.append(("h2d", sim.now))

        def down():
            yield link.transfer_d2h(int(params.pcie_bandwidth))
            done.append(("d2h", sim.now))

        sim.process(up())
        sim.process(down())
        sim.run()
        # Full-duplex: both finish at ~1 s, not 2 s.
        assert all(t == pytest.approx(1.0, rel=0.01) for _, t in done)

    def test_cc_path_is_slower(self, sim, params):
        link = PcieLink(sim, params)
        times = {}

        def move(label, cc):
            yield link.transfer_h2d(1 << 30, cc_path=cc)
            times[label] = sim.now

        sim.process(move("native", False))
        sim.process(move("cc", True))
        sim.run()
        assert times["cc"] > times["native"]

    def test_bytes_moved_totals(self, sim, params):
        link = PcieLink(sim, params)
        link.transfer_h2d(100)
        link.transfer_d2h(200, cc_path=True)
        sim.run()
        assert (link.h2d.bytes_moved, link.d2h_cc.bytes_moved) == (100, 200)


class TestDmaStaging:
    def test_stage_counts_pieces(self, sim):
        staging = DmaStaging(sim, buffer_bytes=1 * MB, buffers=2)

        def proc():
            yield from staging.stage(3 * MB)

        sim.process(proc())
        sim.run()
        assert staging.stage_count == 3

    def test_bounded_outstanding(self, sim):
        staging = DmaStaging(sim, buffer_bytes=1 * MB, buffers=2)

        def proc():
            yield from staging.stage(64 * MB)

        for _ in range(4):
            sim.process(proc())
        sim.run()
        assert staging.max_outstanding <= 2

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            DmaStaging(sim, buffer_bytes=0)
