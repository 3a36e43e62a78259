"""Physical memory model."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import MemoryFault
from repro.memory.phys import PhysicalMemory


class TestBytes:
    def test_unwritten_reads_zero(self, memory):
        assert memory.read_byte(0x1234) == 0
        assert memory.read_bytes(0x5000, 8) == bytes(8)

    def test_byte_roundtrip(self, memory):
        memory.write_byte(100, 0xAB)
        assert memory.read_byte(100) == 0xAB

    def test_byte_truncated_to_8_bits(self, memory):
        memory.write_byte(0, 0x1FF)
        assert memory.read_byte(0) == 0xFF

    def test_bytes_roundtrip(self, memory):
        memory.write_bytes(0x2000, b"hello world")
        assert memory.read_bytes(0x2000, 11) == b"hello world"


class TestWords:
    def test_word_little_endian(self, memory):
        memory.write_word(0x100, 0x0102030405060708)
        assert memory.read_bytes(0x100, 8) == bytes(
            [8, 7, 6, 5, 4, 3, 2, 1])

    def test_word_roundtrip_unaligned(self, memory):
        memory.write_word(0x103, 0xDEADBEEFCAFEF00D)
        assert memory.read_word(0x103) == 0xDEADBEEFCAFEF00D

    def test_word_truncated_to_64_bits(self, memory):
        memory.write_word(0, 1 << 70 | 0x42)
        assert memory.read_word(0) == 0x42


class TestBounds:
    def test_out_of_range_read(self):
        mem = PhysicalMemory(size=0x1000)
        with pytest.raises(MemoryFault, match="out-of-range"):
            mem.read_byte(0x1000)

    def test_word_straddling_end(self):
        mem = PhysicalMemory(size=0x1000)
        with pytest.raises(MemoryFault):
            mem.read_word(0xFFC + 1)

    def test_negative_address(self):
        mem = PhysicalMemory(size=0x1000)
        with pytest.raises(MemoryFault):
            mem.write_byte(-1, 0)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(size=0)


class TestMaintenance:
    def test_clear_range(self, memory):
        memory.write_bytes(0x100, b"\xff" * 32)
        memory.clear_range(0x108, 16)
        data = memory.read_bytes(0x100, 32)
        assert data[:8] == b"\xff" * 8
        assert data[8:24] == bytes(16)
        assert data[24:] == b"\xff" * 8

    def test_footprint_counts_written_bytes(self, memory):
        assert memory.footprint() == 0
        memory.write_bytes(0, b"abcd")
        assert memory.footprint() == 4
        memory.clear_range(0, 2)
        assert memory.footprint() == 2

    def test_sparse_storage_supports_huge_space(self):
        mem = PhysicalMemory(size=1 << 40)
        mem.write_word((1 << 40) - 8, 99)
        assert mem.read_word((1 << 40) - 8) == 99
        assert mem.footprint() == 8


_SIZE = 0x400


def _per_byte_clear(mem: PhysicalMemory, addr: int, length: int) -> None:
    """The reference: drop every address of the range one at a time."""
    for i in range(length):
        mem._bytes.pop(addr + i, None)


def _sparse_memory(writes: dict[int, int]) -> PhysicalMemory:
    mem = PhysicalMemory(size=_SIZE)
    for addr, value in writes.items():
        mem.write_byte(addr, value)
    return mem


_WRITES = st.dictionaries(st.integers(0, _SIZE - 1), st.integers(0, 255),
                          max_size=48)


class TestClearRangeDifferential:
    """``clear_range`` against the per-byte loop, on both sides of the
    footprint: ranges wider than everything written take the key scan,
    narrower ones the per-address pops.  Surviving keys and their
    insertion order must match."""

    def _check(self, writes, addr, length):
        mem, ref = _sparse_memory(writes), _sparse_memory(writes)
        mem.clear_range(addr, length)
        _per_byte_clear(ref, addr, length)
        assert list(mem._bytes.items()) == list(ref._bytes.items())

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(writes=_WRITES, data=st.data())
    def test_range_wider_than_footprint(self, writes, data):
        addr = data.draw(st.integers(0, _SIZE - len(writes) - 1))
        length = data.draw(st.integers(len(writes) + 1, _SIZE - addr))
        assert length > len(writes)
        self._check(writes, addr, length)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(writes=_WRITES.filter(bool), data=st.data())
    def test_range_within_footprint(self, writes, data):
        addr = data.draw(st.integers(0, _SIZE - 1))
        length = data.draw(st.integers(0, min(len(writes), _SIZE - addr)))
        self._check(writes, addr, length)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(writes=_WRITES, addr=st.integers(-8, _SIZE),
           length=st.integers(0, 2 * _SIZE))
    def test_out_of_range_raises_and_keeps_memory(self, writes, addr,
                                                  length):
        assume(addr < 0 or addr + length > _SIZE)
        mem = _sparse_memory(writes)
        before = list(mem._bytes.items())
        with pytest.raises(MemoryFault, match="out-of-range"):
            mem.clear_range(addr, length)
        assert list(mem._bytes.items()) == before
