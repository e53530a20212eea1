"""Differential gate: the word-level functional path vs the per-bit oracle.

``Sram.read_word``/``write_word`` decode each word's cells once through
``MemoryGeometry.word_cells``, ``MemoryState.get`` reads with
``ndarray.item`` and ``CycleOp`` is a named tuple.  The oracle below is
the reference simulator those replace: per-bit cell decoding through
``bit_position``, ``int()`` state reads and a frozen-dataclass cycle
record.  Every full-mode ``VirtualTester.test_device`` run here must give
the oracle's verdict and the oracle's fail log, record for record.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tester.ate as ate_module
from repro.circuit.technology import CMOS018
from repro.defects.behavior import DefectBehaviorModel, FaultMode, Manifestation
from repro.defects.models import BridgeSite, OpenSite, bridge, open_defect
from repro.faults.models import FunctionalFault, MemoryState, StuckAtFault
from repro.march.library import MARCH_G_DEL, TEST_11N
from repro.march.ops import R0, W1
from repro.march.pause import PauseElement
from repro.march.sequencer import (
    CycleOp,
    DataBackground,
    MarchSequencer,
    background_bit,
)
from repro.memory.array import BitArray
from repro.memory.geometry import MemoryGeometry
from repro.memory.sram import Sram
from repro.stress import production_conditions
from repro.tester.ate import VirtualTester

DIAGNOSIS = MemoryGeometry(8, 2, 4)
MULTI_BLOCK = MemoryGeometry(4, 4, 8, 2)
ODD_ROWS = MemoryGeometry(6, 3, 4)
GEOMETRIES = (DIAGNOSIS, MULTI_BLOCK, ODD_ROWS)
CONDITION = production_conditions(CMOS018)["Vnom"]


# ----------------------------------------------------------------------
# The oracle: per-bit decoding, int() reads, frozen-dataclass cycles
# ----------------------------------------------------------------------
def legacy_cell_index(geometry: MemoryGeometry, address: int, bit: int) -> int:
    block, row, bitline = geometry.bit_position(address, bit)
    return (block * geometry.bits_per_block
            + row * geometry.bitlines_per_block + bitline)


class LegacyState(MemoryState):
    def get(self, address: int) -> int:
        return int(self.bits[address])


class LegacySram(Sram):
    def __init__(self, geometry: MemoryGeometry) -> None:
        super().__init__(geometry, CMOS018)
        self.state = LegacyState(geometry.bits)

    def write_word(self, address: int, value: int) -> None:
        width = self.geometry.bits_per_word
        if not 0 <= value < (1 << width):
            raise ValueError(f"word value {value} out of range")
        for bit in range(width):
            cell = legacy_cell_index(self.geometry, address, bit)
            self._apply_write(cell, (value >> bit) & 1)
        self._cycle += 1

    def read_word(self, address: int) -> int:
        value = 0
        for bit in range(self.geometry.bits_per_word):
            cell = legacy_cell_index(self.geometry, address, bit)
            if self._apply_read(cell) == 1:
                value |= 1 << bit
        self._cycle += 1
        return value


@dataclasses.dataclass(frozen=True)
class LegacyCycleOp:
    cycle: int
    element_index: int
    op_index: int
    address: int
    op: object
    value: int


class LegacySequencer(MarchSequencer):
    def run(self, test, background=DataBackground.SOLID,
            ) -> Iterator[LegacyCycleOp]:
        cycle = 0
        for ei, element in enumerate(test.elements):
            if isinstance(element, PauseElement):
                cycle += element.cycles
                continue
            for address in self.addresses(element.order):
                bg = background_bit(background, address, self.columns)
                for oi, op in enumerate(element.ops):
                    yield LegacyCycleOp(
                        cycle=cycle,
                        element_index=ei,
                        op_index=oi,
                        address=address,
                        op=op,
                        value=op.value ^ bg,
                    )
                    cycle += 1


class GivenManifestations:
    """Behaviour stub: each 'defect' is already its own manifestation."""

    def manifestation(self, defect, condition):
        return defect


def outcome(result) -> tuple[bool, list[tuple]]:
    return result.passed, [dataclasses.astuple(f) for f in result.fails]


def assert_equivalent(monkeypatch, geometry, manifestations, test=TEST_11N,
                      background=DataBackground.SOLID, behavior=None,
                      condition=CONDITION) -> None:
    tester = VirtualTester(behavior or GivenManifestations())
    fast = tester.test_device(Sram(geometry, CMOS018), manifestations, test,
                              condition, quick=False, background=background)
    with monkeypatch.context() as patch:
        patch.setattr(ate_module, "MarchSequencer", LegacySequencer)
        slow = tester.test_device(LegacySram(geometry), manifestations,
                                  test, condition, quick=False,
                                  background=background)
    assert outcome(fast) == outcome(slow), (manifestations, background)


def single_fault_cases(cell: int) -> list[Manifestation]:
    """One fault per mode; the stuck value alternates with the cell."""
    return [Manifestation(mode, cell, stuck_value=(cell >> 1) & 1)
            for mode in FaultMode]


def corner_and_edge_cells(geometry: MemoryGeometry) -> list[int]:
    """First and last cell of the first and last row, plus the first
    cell of the second row (an edge of both word line and bit line)."""
    last = geometry.bits - 1
    row = geometry.bitlines_per_block
    return sorted({0, row - 1, row, last - row + 1, last})


# ----------------------------------------------------------------------
# Full-mode runs: word path vs oracle
# ----------------------------------------------------------------------
class TestFullModeEquivalence:
    def test_every_mode_at_every_cell(self, monkeypatch):
        for cell in range(DIAGNOSIS.bits):
            for m in single_fault_cases(cell):
                assert_equivalent(monkeypatch, DIAGNOSIS, [m])

    @pytest.mark.parametrize("background", list(DataBackground)[1:])
    def test_backgrounds_at_corners_and_edges(self, monkeypatch, background):
        for cell in corner_and_edge_cells(DIAGNOSIS):
            for m in single_fault_cases(cell):
                assert_equivalent(monkeypatch, DIAGNOSIS, [m],
                                  background=background)

    def test_pause_elements(self, monkeypatch):
        for cell in corner_and_edge_cells(DIAGNOSIS)[::2]:
            for m in single_fault_cases(cell):
                assert_equivalent(monkeypatch, DIAGNOSIS, [m],
                                  test=MARCH_G_DEL)

    @pytest.mark.parametrize("geometry", [MULTI_BLOCK, ODD_ROWS], ids=str)
    def test_other_geometries(self, monkeypatch, geometry):
        for cell in corner_and_edge_cells(geometry):
            for m in single_fault_cases(cell):
                assert_equivalent(monkeypatch, geometry, [m],
                                  background=DataBackground.CHECKERBOARD)

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
    def test_seeded_fault_combinations(self, monkeypatch, geometry):
        rng = random.Random(geometry.bits)
        modes = list(FaultMode)
        for _ in range(12):
            combo = [Manifestation(rng.choice(modes),
                                   rng.randrange(geometry.bits),
                                   stuck_value=rng.randrange(2))
                     for _ in range(rng.randint(2, 3))]
            assert_equivalent(monkeypatch, geometry, combo,
                              background=rng.choice(list(DataBackground)))

    def test_stuck_open_with_multiple_access(self, monkeypatch):
        # An access to the hazard's victim also touches victim + 1: put
        # the stale read on the victim, on that neighbour, one cell
        # further, and on the next bit of the victim's word.
        for victim in (0, 5, DIAGNOSIS.bits - 2):
            for offset in (0, 1, 2, DIAGNOSIS.columns):
                stale = (victim + offset) % DIAGNOSIS.bits
                combo = [Manifestation(FaultMode.ADDRESS_HAZARD, victim),
                         Manifestation(FaultMode.READ_DELAY, stale)]
                assert_equivalent(monkeypatch, DIAGNOSIS, combo)
                assert_equivalent(monkeypatch, DIAGNOSIS, combo[::-1])

    def test_real_defects_at_production_conditions(self, monkeypatch):
        behavior = DefectBehaviorModel(CMOS018)
        rng = random.Random(7)
        defects = (
            [bridge(site, r, cell=rng.randrange(DIAGNOSIS.bits))
             for site in BridgeSite for r in (20.0, 150e3)]
            + [open_defect(site, r, cell=rng.randrange(DIAGNOSIS.bits))
               for site in OpenSite for r in (1e5, 1e8)])
        manifested = 0
        for condition in production_conditions(CMOS018).values():
            for defect in defects:
                # A defect that does not manifest is a clean run; the
                # combination below covers that case.
                if behavior.manifestation(defect, condition) is None:
                    continue
                manifested += 1
                assert_equivalent(monkeypatch, DIAGNOSIS, [defect],
                                  behavior=behavior, condition=condition)
            assert_equivalent(monkeypatch, DIAGNOSIS, defects[::4],
                              behavior=behavior, condition=condition)
        assert manifested > 0


# ----------------------------------------------------------------------
# The one copy of the cell mapping
# ----------------------------------------------------------------------
class TestWordCells:
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
    def test_matches_per_bit_mapping(self, geometry):
        for address in range(geometry.words):
            cells = list(geometry.word_cells(address))
            legacy = [legacy_cell_index(geometry, address, b)
                      for b in range(geometry.bits_per_word)]
            assert cells == legacy
            assert cells == [geometry.cell_index(address, b)
                             for b in range(geometry.bits_per_word)]

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 9), columns=st.integers(1, 5),
           bits=st.integers(1, 6), blocks=st.integers(1, 3),
           data=st.data())
    def test_property(self, rows, columns, bits, blocks, data):
        geometry = MemoryGeometry(rows, columns, bits, blocks)
        address = data.draw(st.integers(0, geometry.words - 1))
        assert list(geometry.word_cells(address)) == [
            legacy_cell_index(geometry, address, b) for b in range(bits)]

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
    def test_cells_partition_the_array(self, geometry):
        seen = [c for a in range(geometry.words)
                for c in geometry.word_cells(a)]
        assert sorted(seen) == list(range(geometry.bits))


class TestErrorsUnchanged:
    @pytest.mark.parametrize("address", [-1, 16, 10**6])
    def test_bad_address(self, address):
        text = f"word address {address} out of range \\[0, 16\\)"
        with pytest.raises(ValueError, match=text):
            DIAGNOSIS.word_cells(address)
        with pytest.raises(ValueError, match=text):
            DIAGNOSIS.cell_index(address, 0)
        with pytest.raises(ValueError, match=text):
            Sram(DIAGNOSIS, CMOS018).read_word(address)
        with pytest.raises(ValueError, match=text):
            Sram(DIAGNOSIS, CMOS018).write_word(address, 0)
        with pytest.raises(ValueError, match=text):
            BitArray(DIAGNOSIS).read_word(address)
        with pytest.raises(ValueError, match=text):
            BitArray(DIAGNOSIS).write_word(address, 0)

    @pytest.mark.parametrize("bit", [-1, 4, 99])
    def test_bad_bit_is_checked_before_the_address(self, bit):
        text = f"bit index out of range: {bit}"
        with pytest.raises(ValueError, match=text):
            DIAGNOSIS.cell_index(0, bit)
        with pytest.raises(ValueError, match=text):
            DIAGNOSIS.cell_index(-1, bit)

    def test_bad_value_is_checked_before_the_address(self):
        with pytest.raises(ValueError, match="word value 16 out of range"):
            Sram(DIAGNOSIS, CMOS018).write_word(-1, 16)
        with pytest.raises(ValueError, match="word value 16 out of range"):
            BitArray(DIAGNOSIS).write_word(-1, 16)

    def test_bit_array_roundtrip(self):
        array = BitArray(MULTI_BLOCK)
        for address in range(MULTI_BLOCK.words):
            array.write_word(address, (address * 37) % 256)
        for address in range(MULTI_BLOCK.words):
            assert array.read_word(address) == (address * 37) % 256
            assert [array.read_bit(address, b) for b in range(8)] == [
                ((address * 37) % 256 >> b) & 1 for b in range(8)]


# ----------------------------------------------------------------------
# The cycle record contract
# ----------------------------------------------------------------------
class TestCycleOpContract:
    FIELDS = ("cycle", "element_index", "op_index", "address", "op", "value")

    def make(self) -> CycleOp:
        return CycleOp(cycle=3, element_index=1, op_index=2, address=5,
                       op=R0, value=1)

    def test_field_order(self):
        assert CycleOp._fields == self.FIELDS
        assert tuple(self.make()) == (3, 1, 2, 5, R0, 1)

    def test_repr(self):
        assert repr(self.make()) == (
            f"CycleOp(cycle=3, element_index=1, op_index=2, address=5, "
            f"op={R0!r}, value=1)")

    def test_hash_and_equality(self):
        legacy = LegacyCycleOp(3, 1, 2, 5, R0, 1)
        assert hash(self.make()) == hash(legacy)
        assert self.make() == CycleOp(3, 1, 2, 5, R0, 1)
        assert self.make() != CycleOp(3, 1, 2, 5, W1, 1)

    @pytest.mark.parametrize("name", FIELDS)
    def test_fields_are_read_only(self, name):
        with pytest.raises(AttributeError):
            setattr(self.make(), name, 0)

    def test_stream_matches_legacy_sequencer(self):
        for background in DataBackground:
            for test in (TEST_11N, MARCH_G_DEL):
                fast = MarchSequencer(16, columns=2).run(test, background)
                slow = LegacySequencer(16, columns=2).run(test, background)
                assert [tuple(c) for c in fast] == [
                    tuple(getattr(c, f) for f in self.FIELDS) for c in slow]


# ----------------------------------------------------------------------
# Robustness: a shared sram never keeps a run's faults
# ----------------------------------------------------------------------
class ExplodingRead(FunctionalFault):
    def read(self, mem, address, cycle):
        raise RuntimeError("comparator fell over")


class TestFaultsNeverOutliveARun:
    def test_faults_cleared_after_a_raising_run(self, monkeypatch):
        monkeypatch.setattr(ate_module, "to_functional_fault",
                            lambda m, geometry: ExplodingRead())
        sram = Sram(DIAGNOSIS, CMOS018)
        tester = VirtualTester(GivenManifestations())
        with pytest.raises(RuntimeError, match="comparator fell over"):
            tester.test_device(sram, [Manifestation(FaultMode.CELL_STUCK, 0)],
                               TEST_11N, CONDITION, quick=False)
        assert sram.faults == []

    def test_faults_cleared_after_a_clean_run(self):
        sram = Sram(DIAGNOSIS, CMOS018)
        sram.attach_fault(StuckAtFault(0, 1))
        tester = VirtualTester(GivenManifestations())
        result = tester.test_device(
            sram, [Manifestation(FaultMode.CELL_STUCK, 9, stuck_value=1)],
            TEST_11N, CONDITION, quick=False)
        assert not result.passed
        victim = [a for a in range(DIAGNOSIS.words)
                  if 9 in DIAGNOSIS.word_cells(a)]
        assert {f.address for f in result.fails} == set(victim)
        assert sram.faults == []
