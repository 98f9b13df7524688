"""Host (CVM) memory with page-granular protection and fault hooks.

PipeLLM's validator (§5.2) write-protects the plaintext pages backing
every speculatively encrypted chunk using MPK/PKU, so that an in-place
update by the application raises a page fault and invalidates the
stale ciphertext. The asynchronous decryptor (§5.4) similarly revokes
*read and write* access to not-yet-decrypted swap-out destinations.

:class:`HostMemory` reproduces exactly that contract:

* a bump allocator hands out page-aligned :class:`Region` objects that
  carry a small functional ``payload`` alongside their logical ``size``;
* ``protect()`` revokes read and/or write permission for a page range
  on behalf of an *owner* token;
* every ``read``/``write`` checks permissions and dispatches a
  :class:`PageFault` to registered handlers. A handler must clear the
  offending protection (like a real fault handler re-enabling access);
  if no handler does, :class:`AccessViolation` is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "AccessViolation",
    "HostMemory",
    "MemoryChunk",
    "PageFault",
    "Region",
]


class AccessViolation(Exception):
    """An access hit a protected page and no fault handler resolved it."""


@dataclass(frozen=True)
class MemoryChunk:
    """The unit of a CPU↔GPU transfer.

    ``addr``/``size`` describe the logical transfer (what the cost
    models and the PipeLLM classifier see); ``payload`` is the small
    real byte content that flows through the functional crypto layer.
    """

    addr: int
    size: int
    payload: bytes
    tag: str = ""

    def __post_init__(self) -> None:
        if self.size < len(self.payload):
            raise ValueError("logical size smaller than payload")

    @property
    def end(self) -> int:
        return self.addr + self.size

    def overlaps(self, addr: int, size: int) -> bool:
        return self.addr < addr + size and addr < self.end


@dataclass
class Region:
    """An allocated host-memory range."""

    addr: int
    size: int
    tag: str
    payload: bytearray

    def chunk(self) -> MemoryChunk:
        """Snapshot this region as a transferable chunk."""
        return MemoryChunk(self.addr, self.size, bytes(self.payload), self.tag)


@dataclass(frozen=True)
class PageFault:
    """Delivered to fault handlers on a protected access."""

    addr: int
    size: int
    is_write: bool
    owners: Tuple[str, ...]


@dataclass
class _Protection:
    owner: str
    addr: int
    size: int
    deny_read: bool
    deny_write: bool

    def covers(self, addr: int, size: int) -> bool:
        return self.addr < addr + size and addr < self.addr + self.size


class HostMemory:
    """CVM private memory: allocator + MPK/PKU-style protection model."""

    def __init__(self, capacity: int = 1 << 40, page_size: int = 4096) -> None:
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError("page_size must be a positive power of two")
        self.capacity = capacity
        self.page_size = page_size
        self._cursor = page_size  # keep address 0 unused
        #: Live (allocated, not yet freed) bytes — what counts against
        #: capacity. Addresses are never reused, but address space is
        #: not memory.
        self.used_bytes = 0
        self._regions: Dict[int, Region] = {}
        self._protections: List[_Protection] = []
        self._fault_handlers: List[Callable[[PageFault], None]] = []
        self._free_handlers: List[Callable[[Region], None]] = []
        self.fault_count = 0

    # -- allocation --------------------------------------------------------

    def allocate(self, size: int, tag: str = "", payload: Optional[bytes] = None) -> Region:
        """Allocate a page-aligned region of ``size`` logical bytes."""
        if size <= 0:
            raise ValueError("size must be positive")
        aligned = -(-size // self.page_size) * self.page_size
        if self.used_bytes + aligned > self.capacity:
            raise MemoryError(f"host memory exhausted ({self.capacity} bytes)")
        region = Region(self._cursor, size, tag, bytearray(payload or b""))
        self._regions[region.addr] = region
        self._cursor += aligned
        self.used_bytes += aligned
        return region

    def free(self, region: Region) -> None:
        """Release a region (protection entries on it are dropped too)."""
        if self._regions.pop(region.addr, None) is not None:
            aligned = -(-region.size // self.page_size) * self.page_size
            self.used_bytes -= aligned
        self._protections = [p for p in self._protections if not p.covers(region.addr, region.size)]
        for handler in self._free_handlers:
            handler(region)

    def on_free(self, handler: Callable[[Region], None]) -> None:
        """Register a callback fired whenever a region is freed.

        PipeLLM uses this to drop speculative ciphertext whose source
        plaintext no longer exists (e.g. a KV region consumed by its
        swap-in).
        """
        self._free_handlers.append(handler)

    def region_at(self, addr: int) -> Region:
        """Look up the region starting exactly at ``addr``."""
        try:
            return self._regions[addr]
        except KeyError:
            raise KeyError(f"no region at address {addr:#x}") from None

    # -- protection ---------------------------------------------------------

    def protect(
        self,
        addr: int,
        size: int,
        owner: str,
        deny_read: bool = False,
        deny_write: bool = True,
    ) -> None:
        """Revoke access to [addr, addr+size) on behalf of ``owner``."""
        if not (deny_read or deny_write):
            raise ValueError("protection must deny at least one access mode")
        self._protections.append(_Protection(owner, addr, size, deny_read, deny_write))

    def unprotect(self, owner: str, addr: Optional[int] = None, size: Optional[int] = None) -> int:
        """Drop protections held by ``owner``; optionally range-limited.

        Returns the number of protection entries removed.
        """
        def keep(p: _Protection) -> bool:
            if p.owner != owner:
                return True
            if addr is not None and size is not None and not p.covers(addr, size):
                return True
            return False

        before = len(self._protections)
        self._protections = [p for p in self._protections if keep(p)]
        return before - len(self._protections)

    def protections_on(self, addr: int, size: int) -> List[str]:
        """Owners of protections overlapping the given range."""
        return [p.owner for p in self._protections if p.covers(addr, size)]

    def is_protected(self, addr: int, size: int, for_write: bool) -> bool:
        for p in self._protections:
            if p.covers(addr, size) and (p.deny_write if for_write else p.deny_read):
                return True
        return False

    def on_fault(self, handler: Callable[[PageFault], None]) -> None:
        """Register a fault handler (called in registration order)."""
        self._fault_handlers.append(handler)

    def _check_access(self, addr: int, size: int, is_write: bool) -> None:
        if not self.is_protected(addr, size, for_write=is_write):
            return
        owners = tuple(self.protections_on(addr, size))
        self.fault_count += 1
        fault = PageFault(addr, size, is_write, owners)
        for handler in self._fault_handlers:
            handler(fault)
        if self.is_protected(addr, size, for_write=is_write):
            raise AccessViolation(
                f"{'write' if is_write else 'read'} to protected range "
                f"[{addr:#x}, +{size}) not resolved by any fault handler "
                f"(owners: {owners})"
            )

    # -- access ---------------------------------------------------------------

    def read(self, addr: int) -> bytes:
        """Read a region's payload (checks read permission)."""
        region = self.region_at(addr)
        self._check_access(region.addr, region.size, is_write=False)
        return bytes(region.payload)

    def write(self, addr: int, payload: bytes) -> None:
        """Overwrite a region's payload (checks write permission)."""
        region = self.region_at(addr)
        self._check_access(region.addr, region.size, is_write=True)
        region.payload = bytearray(payload)

    def chunk_at(self, addr: int) -> MemoryChunk:
        """Snapshot a region as a transfer chunk via a *checked* read.

        Unlike :meth:`Region.chunk`, this goes through the permission
        check, so touching a region whose plaintext is still pending
        asynchronous decryption faults and lands the data first —
        exactly the usage-before-decryption path of §5.4.
        """
        region = self.region_at(addr)
        payload = self.read(addr)
        return MemoryChunk(region.addr, region.size, payload, region.tag)

    def write_silent(self, addr: int, payload: bytes) -> None:
        """Store a payload bypassing protection checks.

        Used by the runtime itself (e.g. the asynchronous decryptor
        landing plaintext into a still-revoked destination); never by
        application code.
        """
        self.region_at(addr).payload = bytearray(payload)
