"""Functional bit-array storage for word-oriented SRAM models.

:class:`BitArray` stores the memory content at word granularity on top
of a flat numpy bit vector indexed by the geometry's flat cell index, so
the functional state is shared with the bit-level fault machinery.
"""

from __future__ import annotations

import numpy as np

from repro.memory.geometry import MemoryGeometry

UNKNOWN = -1


class BitArray:
    """Word-addressable storage backed by per-cell bits.

    Args:
        geometry: Memory organisation.
    """

    def __init__(self, geometry: MemoryGeometry) -> None:
        self.geometry = geometry
        self.bits = np.full(geometry.bits, UNKNOWN, dtype=np.int8)

    def reset(self) -> None:
        self.bits.fill(UNKNOWN)

    # ------------------------------------------------------------------
    # Word access
    # ------------------------------------------------------------------
    def write_word(self, address: int, value: int) -> None:
        """Store ``value`` (``bits_per_word`` wide) at a word address."""
        width = self.geometry.bits_per_word
        if not 0 <= value < (1 << width):
            raise ValueError(f"word value {value} out of range for {width} bits")
        for bit, cell in enumerate(self.geometry.word_cells(address)):
            self.bits[cell] = (value >> bit) & 1

    def read_word(self, address: int) -> int:
        """Read the word at ``address``; unknown cells read as 0."""
        value = 0
        for bit, cell in enumerate(self.geometry.word_cells(address)):
            if self.bits[cell] == 1:
                value |= 1 << bit
        return value

    # ------------------------------------------------------------------
    # Bit access
    # ------------------------------------------------------------------
    def write_bit(self, address: int, bit: int, value: int) -> None:
        if value not in (0, 1):
            raise ValueError("bit value must be 0 or 1")
        self.bits[self.geometry.cell_index(address, bit)] = value

    def read_bit(self, address: int, bit: int) -> int:
        return int(self.bits[self.geometry.cell_index(address, bit)])

    def fill(self, value: int) -> None:
        """Set every cell to a solid value."""
        if value not in (0, 1):
            raise ValueError("fill value must be 0 or 1")
        self.bits.fill(value)

    def count_mismatches(self, other: "BitArray") -> int:
        """Number of differing cells (for bitmap comparison)."""
        if self.geometry != other.geometry:
            raise ValueError("geometries differ")
        return int(np.count_nonzero(self.bits != other.bits))
