"""Property test: ``Memory`` against a small dict-backed reference model.

The reference keeps one ``dict`` entry per mapped byte, the most direct
reading of Bedrock2's memory as a partial map from addresses to bytes.
Random operation sequences drive both memories side by side; every
operation must agree on its return value or on its exception (type and
message), and after every operation the two must agree on the access
counters, the regions and ``snapshot()``.  Some steps switch both to
their ``copy()`` and check that the abandoned originals never change
again.
"""

from typing import Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bedrock2.memory import Memory, MemoryError_, Region


class RefMemory:
    """Byte-per-entry reference: the spec ``Memory`` must match."""

    def __init__(self, width: int = 64):
        self.width = width
        self.bytes: Dict[int, int] = {}
        self.regions: List[Region] = []
        self.next_base = 0x1000
        self.stack_top = (1 << min(width, 47)) - 0x1000
        self.read_count = 0
        self.write_count = 0

    def allocate(self, size: int, label: str = "", base: Optional[int] = None) -> int:
        if size < 0:
            raise ValueError("allocation size must be nonnegative")
        if base is None:
            base = self.next_base
            self.next_base = base + size + 0x40
        for other in self.regions:
            if base < other.end and other.base < base + size:
                raise MemoryError_(
                    f"allocation [{base:#x},{base + size:#x}) overlaps {other}"
                )
        self.regions.append(Region(base, size, label))
        for addr in range(base, base + size):
            self.bytes[addr] = 0
        return base

    def allocate_stack(self, size: int) -> int:
        self.stack_top -= size + 0x20
        return self.allocate(size, label="stack", base=self.stack_top)

    def free(self, base: int) -> None:
        for index, region in enumerate(self.regions):
            if region.base == base:
                del self.regions[index]
                for addr in range(base, region.end):
                    del self.bytes[addr]
                return
        raise MemoryError_(f"free of unallocated address {base:#x}")

    def store_bytes_at(self, base: int, data: bytes, label: str = "") -> int:
        self.allocate(len(data), label=label, base=base)
        self._write(base, data)
        return base

    def place_bytes(self, data: bytes, label: str = "") -> int:
        base = self.allocate(len(data), label=label)
        self._write(base, data)
        return base

    def _check(self, addr: int, nbytes: int) -> None:
        if not any(r.base <= addr and addr + nbytes <= r.end for r in self.regions):
            raise MemoryError_(
                f"access of {nbytes} byte(s) at {addr:#x} is out of bounds"
            )

    def _write(self, addr: int, data: bytes) -> None:
        for offset, byte in enumerate(data):
            self.bytes[addr + offset] = byte

    def load(self, addr: int, nbytes: int) -> int:
        self._check(addr, nbytes)
        self.read_count += 1
        return sum(self.bytes[addr + i] << (8 * i) for i in range(nbytes))

    def store(self, addr: int, nbytes: int, value: int) -> None:
        self._check(addr, nbytes)
        self.write_count += 1
        self._write(addr, [(value >> (8 * i)) & 0xFF for i in range(nbytes)])

    def load_bytes(self, addr: int, nbytes: int) -> bytes:
        self._check(addr, nbytes)
        return bytes(self.bytes[addr + i] for i in range(nbytes))

    def store_bytes(self, addr: int, data: bytes) -> None:
        if data:
            self._check(addr, len(data))
        self._write(addr, data)

    def snapshot(self) -> Dict[int, int]:
        return dict(self.bytes)

    def copy(self) -> "RefMemory":
        clone = RefMemory(self.width)
        clone.bytes = dict(self.bytes)
        clone.regions = list(self.regions)
        clone.next_base, clone.stack_top = self.next_base, self.stack_top
        return clone


def _outcome(method, *args):
    try:
        return ("ok", method(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc))


def _state(mem):
    return (mem.read_count, mem.write_count, tuple(mem.regions), mem.snapshot())


def _address(data, ref: RefMemory) -> int:
    """An address near a live region (or anywhere), so most accesses land."""
    if ref.regions and data.draw(st.integers(0, 4)):
        region = data.draw(st.sampled_from(ref.regions))
        return region.base + data.draw(st.integers(-3, region.size + 3))
    return data.draw(st.integers(0, 0x3000))


def _fixed_base(data, ref: RefMemory) -> int:
    """A base adjacent to, inside, or away from the live regions."""
    if ref.regions and data.draw(st.booleans()):
        region = data.draw(st.sampled_from(ref.regions))
        return data.draw(
            st.sampled_from([region.end, region.base, region.base + 1, region.end - 1])
        )
    return data.draw(st.integers(0x800, 0x3000))


VALUES = st.one_of(
    st.integers(0, 255),
    st.integers(0, 2**64 - 1),
    st.integers(-(2**70), 2**70),  # wider than any access, and negative
)
DATA = st.binary(min_size=0, max_size=24)
OPS = (
    "allocate",
    "allocate_fixed",
    "allocate_stack",
    "free",
    "load",
    "store",
    "load_bytes",
    "store_bytes",
    "store_bytes_at",
    "place_bytes",
    "copy",
)


def _step(data, ref: RefMemory, mem: Memory, op: str):
    """Draw the arguments of ``op`` once; return both memories' outcomes."""
    if op == "allocate":
        args = (data.draw(st.integers(-1, 24)), data.draw(st.sampled_from(["", "a"])))
    elif op == "allocate_fixed":
        size = data.draw(st.integers(0, 16))
        base = _fixed_base(data, ref)
        return (
            _outcome(lambda: ref.allocate(size, base=base)),
            _outcome(lambda: mem.allocate(size, base=base)),
        )
    elif op == "allocate_stack":
        args = (data.draw(st.integers(-1, 40)),)
    elif op == "free":
        live = [r.base for r in ref.regions]
        args = (data.draw(st.sampled_from(live + [0xDEAD])),)
    elif op == "load":
        args = (_address(data, ref), data.draw(st.sampled_from([1, 2, 4, 8])))
    elif op == "store":
        args = (
            _address(data, ref),
            data.draw(st.sampled_from([1, 2, 4, 8])),
            data.draw(VALUES),
        )
    elif op == "load_bytes":
        args = (_address(data, ref), data.draw(st.integers(0, 12)))
    elif op == "store_bytes":
        args = (_address(data, ref), data.draw(DATA))
    elif op == "store_bytes_at":
        args = (_fixed_base(data, ref), data.draw(DATA), "at")
    else:
        args = (data.draw(DATA), "placed")
    return _outcome(getattr(ref, op), *args), _outcome(getattr(mem, op), *args)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([32, 64]))
def test_memory_matches_dict_reference(data, width):
    ref, mem = RefMemory(width), Memory(width)
    abandoned = []  # (old real memory, its state when it was replaced)
    for _ in range(data.draw(st.integers(1, 40))):
        op = data.draw(st.sampled_from(OPS))
        if op == "copy":
            abandoned.append((mem, _state(mem)))
            ref, mem = ref.copy(), mem.copy()
            assert _state(mem) == _state(ref)
            continue
        want, got = _step(data, ref, mem, op)
        assert got == want, op
        assert _state(mem) == _state(ref), op
    for old, state in abandoned:
        assert _state(old) == state


def test_straddle_across_adjacent_regions_is_rejected_by_both():
    ref, mem = RefMemory(), Memory()
    for m in (ref, mem):
        m.allocate(4, base=0x1000)
        m.allocate(4, base=0x1004)
    for args in [(0x1002, 4), (0x1003, 2), (0x1000, 8)]:
        want = _outcome(ref.load, *args)
        assert want[0] == "raised"
        assert _outcome(mem.load, *args) == want
        assert _outcome(mem.store, *args, 0) == _outcome(ref.store, *args, 0)
    assert _state(mem) == _state(ref)


def test_store_truncates_wide_and_negative_values_like_the_reference():
    ref, mem = RefMemory(), Memory()
    base = ref.allocate(8)
    assert mem.allocate(8) == base
    for nbytes, value in [(1, 0x1FF), (2, -1), (4, -(2**40) + 5), (8, 2**70 + 3)]:
        ref.store(base, nbytes, value)
        mem.store(base, nbytes, value)
        assert mem.load(base, 8) == ref.load(base, 8)
    assert _state(mem) == _state(ref)
