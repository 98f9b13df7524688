"""TEE-I/O model tests (§8.3 extension)."""

import pytest

from repro.bench.teeio import TEEIO_LINE_RATE, teeio_params
from repro.hw import default_params


class TestParams:
    def test_single_tenant_gets_line_rate(self):
        params = teeio_params(1)
        assert params.enc_bandwidth_per_thread == TEEIO_LINE_RATE
        assert params.dec_bandwidth_per_thread == TEEIO_LINE_RATE

    def test_sharing_divides_rate(self):
        assert teeio_params(8).enc_bandwidth_per_thread == TEEIO_LINE_RATE / 8

    def test_hardware_control_plane_cheaper(self):
        assert teeio_params(1).cc_control_latency < default_params().cc_control_latency

    def test_other_params_untouched(self):
        params = teeio_params(4)
        base = default_params()
        assert params.pcie_bandwidth == base.pcie_bandwidth
        assert params.cc_dma_bandwidth == base.cc_dma_bandwidth
        assert params.gpu_memory_bytes == base.gpu_memory_bytes

    def test_tenant_validation(self):
        with pytest.raises(ValueError):
            teeio_params(0)

    def test_single_tenant_beats_cc_single_thread(self):
        """The hardware engine at line rate transfers a 1 GiB chunk
        roughly an order of magnitude faster than the software path."""
        hw = teeio_params(1)
        sw = default_params()
        size = 1 << 30
        assert hw.cc_occupancy(size) < sw.cc_occupancy(size) / 8
