"""Host-memory tests: allocation, page protection, fault dispatch."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw import AccessViolation, HostMemory, MemoryChunk


@pytest.fixture
def memory():
    return HostMemory(capacity=1 << 30, page_size=4096)


class TestAllocation:
    def test_page_alignment(self, memory):
        a = memory.allocate(100, "a")
        b = memory.allocate(100, "b")
        assert a.addr % 4096 == 0
        assert b.addr % 4096 == 0
        assert b.addr >= a.addr + 4096

    def test_zero_size_rejected(self, memory):
        with pytest.raises(ValueError):
            memory.allocate(0)

    def test_exhaustion(self):
        small = HostMemory(capacity=16 * 4096, page_size=4096)
        small.allocate(10 * 4096, "big")
        with pytest.raises(MemoryError):
            small.allocate(10 * 4096, "too-big")

    def test_free_then_lookup_fails(self, memory):
        region = memory.allocate(100, "x")
        memory.free(region)
        with pytest.raises(KeyError):
            memory.region_at(region.addr)

    def test_addresses_never_reused(self, memory):
        region = memory.allocate(100, "a")
        memory.free(region)
        again = memory.allocate(100, "b")
        assert again.addr != region.addr

    def test_page_size_validation(self):
        with pytest.raises(ValueError):
            HostMemory(page_size=1000)  # not a power of two


class TestReadWrite:
    def test_payload_roundtrip(self, memory):
        region = memory.allocate(4096, "x", payload=b"hello")
        assert memory.read(region.addr) == b"hello"
        memory.write(region.addr, b"world")
        assert memory.read(region.addr) == b"world"

    def test_chunk_snapshot(self, memory):
        region = memory.allocate(1 << 20, "weights", payload=b"w0")
        chunk = region.chunk()
        assert chunk == MemoryChunk(region.addr, 1 << 20, b"w0", "weights")
        memory.write(region.addr, b"w1")
        assert chunk.payload == b"w0"  # snapshot is immutable

    def test_chunk_at_checks_permissions(self, memory):
        region = memory.allocate(4096, "x", payload=b"data")
        memory.protect(region.addr, region.size, owner="guard", deny_read=True)
        with pytest.raises(AccessViolation):
            memory.chunk_at(region.addr)

    def test_write_silent_bypasses_protection(self, memory):
        region = memory.allocate(4096, "x", payload=b"old")
        memory.protect(region.addr, region.size, owner="guard", deny_write=True)
        memory.write_silent(region.addr, b"new")
        assert region.payload == bytearray(b"new")


class TestProtection:
    def test_write_protect_blocks_write(self, memory):
        region = memory.allocate(4096, "x", payload=b"p")
        memory.protect(region.addr, region.size, owner="spec:1")
        with pytest.raises(AccessViolation):
            memory.write(region.addr, b"q")

    def test_write_protect_allows_read(self, memory):
        region = memory.allocate(4096, "x", payload=b"p")
        memory.protect(region.addr, region.size, owner="spec:1", deny_write=True)
        assert memory.read(region.addr) == b"p"

    def test_read_protect_blocks_read(self, memory):
        region = memory.allocate(4096, "x", payload=b"p")
        memory.protect(region.addr, region.size, owner="dec", deny_read=True, deny_write=True)
        with pytest.raises(AccessViolation):
            memory.read(region.addr)

    def test_unprotect_by_owner(self, memory):
        region = memory.allocate(4096, "x", payload=b"p")
        memory.protect(region.addr, region.size, owner="spec:1")
        memory.protect(region.addr, region.size, owner="spec:2")
        assert memory.unprotect("spec:1") == 1
        assert memory.protections_on(region.addr, region.size) == ["spec:2"]

    def test_unprotect_range_limited(self, memory):
        a = memory.allocate(4096, "a")
        b = memory.allocate(4096, "b")
        memory.protect(a.addr, a.size, owner="o")
        memory.protect(b.addr, b.size, owner="o")
        assert memory.unprotect("o", addr=a.addr, size=a.size) == 1
        assert memory.is_protected(b.addr, b.size, for_write=True)

    def test_protection_requires_a_mode(self, memory):
        with pytest.raises(ValueError):
            memory.protect(0, 1, owner="o", deny_read=False, deny_write=False)

    def test_free_drops_protections(self, memory):
        region = memory.allocate(4096, "x")
        memory.protect(region.addr, region.size, owner="o")
        memory.free(region)
        assert not memory.is_protected(region.addr, region.size, for_write=True)


class TestFaults:
    def test_fault_handler_resolves(self, memory):
        region = memory.allocate(4096, "x", payload=b"p")
        memory.protect(region.addr, region.size, owner="spec:1")
        faults = []

        def handler(fault):
            faults.append(fault)
            memory.unprotect("spec:1")

        memory.on_fault(handler)
        memory.write(region.addr, b"q")
        assert memory.read(region.addr) == b"q"
        assert len(faults) == 1
        assert faults[0].is_write
        assert "spec:1" in faults[0].owners

    def test_unresolved_fault_raises(self, memory):
        region = memory.allocate(4096, "x", payload=b"p")
        memory.protect(region.addr, region.size, owner="spec:1")
        memory.on_fault(lambda fault: None)  # Does not clear anything.
        with pytest.raises(AccessViolation):
            memory.write(region.addr, b"q")

    def test_fault_count(self, memory):
        region = memory.allocate(4096, "x", payload=b"p")
        memory.protect(region.addr, region.size, owner="o")
        memory.on_fault(lambda fault: memory.unprotect("o"))
        memory.write(region.addr, b"q")
        memory.write(region.addr, b"r")  # No protection left: no fault.
        assert memory.fault_count == 1

    def test_on_free_handler(self, memory):
        freed = []
        memory.on_free(lambda region: freed.append(region.tag))
        region = memory.allocate(4096, "x")
        memory.free(region)
        assert freed == ["x"]


class TestMemoryChunk:
    def test_overlap(self):
        chunk = MemoryChunk(100, 50, b"")
        assert chunk.overlaps(120, 10)
        assert chunk.overlaps(90, 20)
        assert not chunk.overlaps(150, 10)
        assert not chunk.overlaps(0, 100)

    def test_payload_must_fit(self):
        with pytest.raises(ValueError):
            MemoryChunk(0, 2, b"too-long-payload")

    @given(addr=st.integers(min_value=0, max_value=10_000),
           size=st.integers(min_value=1, max_value=1000),
           other=st.integers(min_value=0, max_value=10_000),
           other_size=st.integers(min_value=1, max_value=1000))
    @settings(max_examples=50, deadline=None)
    def test_overlap_symmetry(self, addr, size, other, other_size):
        a = MemoryChunk(addr, size, b"")
        b = MemoryChunk(other, other_size, b"")
        assert a.overlaps(other, other_size) == b.overlaps(addr, size)
