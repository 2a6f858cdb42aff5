"""Bedrock2's flat, byte-addressed memory model.

Bedrock2 gives programs a partial map from word addresses to bytes; a load
or store at an unmapped address is undefined behaviour and the semantics
reject the execution.  We model this as a set of disjoint allocated
*regions*, each owning one ``bytearray`` that holds its bytes, which gives
us:

- precise out-of-bounds detection (accesses must fall inside one region);
- cheap stack allocation/deallocation for ``SStackalloc``;
- the footprint bookkeeping the differential tester uses to check that a
  compiled function only writes memory its separation-logic precondition
  owns.

An access finds its region in one pass over the regions, then slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


class MemoryError_(Exception):
    """An undefined-behaviour memory access (out of bounds or unaligned region)."""


@dataclass(frozen=True)
class Region:
    """A contiguous allocated block ``[base, base + size)``."""

    base: int
    size: int
    label: str = ""

    @property
    def end(self) -> int:
        return self.base + self.size


class Memory:
    """Byte-addressed memory with explicit allocated regions.

    Addresses are plain unsigned ints (the interpreter truncates word
    addresses to the target width before calling in here).
    """

    def __init__(self, width: int = 64):
        self.width = width
        # (base, end, bytes, label) per live region, in allocation order.
        self._spans: List[Tuple[int, int, bytearray, str]] = []
        # Bump allocator state for tests/benchmarks that want "fresh" blocks.
        self._next_base = 0x1000
        # Stack allocations grow downward from high memory.
        self._stack_top = (1 << min(width, 47)) - 0x1000
        self.write_count = 0
        self.read_count = 0

    # -- Allocation ---------------------------------------------------------

    def allocate(self, size: int, label: str = "", base: Optional[int] = None) -> int:
        """Allocate a fresh zeroed region of ``size`` bytes; returns its base."""
        if size < 0:
            raise ValueError("allocation size must be nonnegative")
        if base is None:
            base = self._next_base
            self._next_base = base + size + 0x40  # red zone between blocks
        end = base + size
        for other, other_end, _buf, other_label in self._spans:
            if base < other_end and other < end:
                overlapped = Region(other, other_end - other, other_label)
                raise MemoryError_(
                    f"allocation [{base:#x},{end:#x}) overlaps {overlapped}"
                )
        self._spans.append((base, end, bytearray(size), label))
        return base

    def allocate_stack(self, size: int) -> int:
        """Allocate a stack block (grows downward); used by ``SStackalloc``."""
        self._stack_top -= size + 0x20
        return self.allocate(size, label="stack", base=self._stack_top)

    def free(self, base: int) -> None:
        """Free the region starting exactly at ``base``."""
        for index, span in enumerate(self._spans):
            if span[0] == base:
                del self._spans[index]
                return
        raise MemoryError_(f"free of unallocated address {base:#x}")

    def store_bytes_at(self, base: int, data: bytes, label: str = "") -> int:
        """Allocate a region at ``base`` and initialize it with ``data``."""
        self.allocate(len(data), label=label, base=base)
        self._spans[-1][2][:] = data
        return base

    def place_bytes(self, data: bytes, label: str = "") -> int:
        """Allocate a fresh region initialized with ``data``; returns its base."""
        base = self.allocate(len(data), label=label)
        self._spans[-1][2][:] = data
        return base

    # -- Access -------------------------------------------------------------

    def _find(self, addr: int, nbytes: int) -> Tuple[bytearray, int]:
        """The buffer holding ``[addr, addr + nbytes)`` and ``addr``'s offset in it."""
        for base, end, buf, _label in self._spans:
            if base <= addr and addr + nbytes <= end:
                return buf, addr - base
        raise MemoryError_(f"access of {nbytes} byte(s) at {addr:#x} is out of bounds")

    def load(self, addr: int, nbytes: int) -> int:
        """Load ``nbytes`` little-endian bytes; raises on unmapped access."""
        buf, offset = self._find(addr, nbytes)
        self.read_count += 1
        return int.from_bytes(buf[offset : offset + nbytes], "little")

    def store(self, addr: int, nbytes: int, value: int) -> None:
        """Store ``value``'s low ``nbytes`` bytes (two's complement) little-endian."""
        buf, offset = self._find(addr, nbytes)
        self.write_count += 1
        data = (value & ((1 << (8 * nbytes)) - 1)).to_bytes(nbytes, "little")
        buf[offset : offset + nbytes] = data

    def load_bytes(self, addr: int, nbytes: int) -> bytes:
        buf, offset = self._find(addr, nbytes)
        return bytes(buf[offset : offset + nbytes])

    def store_bytes(self, addr: int, data: bytes) -> None:
        if data:
            buf, offset = self._find(addr, len(data))
            buf[offset : offset + len(data)] = data

    # -- Introspection --------------------------------------------------------

    @property
    def regions(self) -> Tuple[Region, ...]:
        return tuple(Region(b, e - b, label) for b, e, _buf, label in self._spans)

    def region_at(self, base: int) -> Region:
        for region in self.regions:
            if region.base == base:
                return region
        raise MemoryError_(f"no region based at {base:#x}")

    def snapshot(self) -> Dict[int, int]:
        """A copy of all mapped bytes (address to byte), for differential comparison."""
        return {
            base + offset: byte
            for base, _end, buf, _label in self._spans
            for offset, byte in enumerate(buf)
        }

    def copy(self) -> "Memory":
        clone = Memory(self.width)
        clone._spans = [(b, e, bytearray(buf), lbl) for b, e, buf, lbl in self._spans]
        clone._next_base = self._next_base
        clone._stack_top = self._stack_top
        return clone
