"""Stress-condition classification of a device lot.

Implements the paper's experimental protocol (Section 5): every part is
first screened with the 11N test at the *standard* conditions; parts
that pass are then re-tested at the stress conditions (VLV, Vmax,
at-speed).  A part failing at least one stress condition while passing
the standard screen is an **interesting device** -- a test escape of the
conventional flow -- and is labelled by the exact set of stress
conditions it fails, which feeds the Venn diagram of Figure 11.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.circuit.technology import CMOS018, Technology
from repro.defects.behavior import DefectBatch, DefectBehaviorModel
from repro.defects.models import Defect
from repro.experiment.veqtor import VeqtorChip, VeqtorTestBench
from repro.march.library import TEST_11N
from repro.march.test import MarchTest
from repro.memory.geometry import VEQTOR4_INSTANCE, MemoryGeometry
from repro.stress import StressCondition, production_conditions
from repro.tester.ate import VirtualTester

#: The stress conditions of the paper's Venn diagram.
STRESS_NAMES = ("VLV", "Vmax", "at-speed")
#: The standard screening conditions.
STANDARD_NAMES = ("Vmin", "Vnom")
#: Every stress-fail set, indexed by its bit code (bit ``i`` set =
#: ``STRESS_NAMES[i]`` failed); each set is built as
#: :meth:`StressClassifier.classify_chip` builds it.
_STRESS_REGIONS = tuple(
    frozenset(name for bit, name in enumerate(STRESS_NAMES)
              if code >> bit & 1)
    for code in range(1 << len(STRESS_NAMES)))


@dataclass
class DeviceRecord:
    """Classification of one part.

    Attributes:
        chip: The part.
        failed_standard: Failed the conventional screen (yield loss).
        failed_stress: The subset of stress conditions failed (empty for
            a fully good part).
    """

    chip: VeqtorChip
    failed_standard: bool
    failed_stress: frozenset[str] = frozenset()

    @property
    def interesting(self) -> bool:
        """Passed standard, failed >= 1 stress condition."""
        return not self.failed_standard and bool(self.failed_stress)


@dataclass
class ExperimentResult:
    """Outcome of classifying a lot.

    Attributes:
        n_devices: Lot size.
        records: One record per *defective* part (clean parts are
            counted, not stored).
        n_standard_fails: Parts failing the conventional screen.
    """

    n_devices: int
    records: list[DeviceRecord] = field(default_factory=list)
    n_standard_fails: int = 0

    @property
    def interesting_devices(self) -> list[DeviceRecord]:
        return [r for r in self.records if r.interesting]

    def stress_class_counts(self) -> dict[frozenset[str], int]:
        """Counts per exact stress-fail set (the Venn regions)."""
        out: dict[frozenset[str], int] = {}
        for rec in self.interesting_devices:
            out[rec.failed_stress] = out.get(rec.failed_stress, 0) + 1
        return out

    def escape_dpm(self, condition: str) -> float:
        """Escapes-per-million of the standard flow that adding one
        stress condition would have caught.

        An empty lot has no escapes by definition, so ``n_devices == 0``
        returns 0.0 instead of dividing by zero (regression-tested; the
        streaming engine can legitimately reduce empty sub-populations).
        """
        if self.n_devices <= 0:
            return 0.0
        caught = sum(1 for r in self.interesting_devices
                     if condition in r.failed_stress)
        return 1e6 * caught / self.n_devices


class StressClassifier:
    """Runs the screen-then-stress protocol over a lot.

    Args:
        tech: Technology corner.
        test: March test (the paper's production 11N by default).
        geometry: Per-instance organisation.
        behavior: Behaviour model override (shared with the estimator in
            the agreement benches).
    """

    def __init__(self, tech: Technology = CMOS018,
                 test: MarchTest = TEST_11N,
                 geometry: MemoryGeometry = VEQTOR4_INSTANCE,
                 behavior: DefectBehaviorModel | None = None) -> None:
        self.tech = tech
        self.test = test
        behavior = behavior if behavior is not None else DefectBehaviorModel(tech)
        self.bench = VeqtorTestBench(VirtualTester(behavior), geometry, tech)
        self.conditions = production_conditions(tech)

    def classify_chip(self, chip: VeqtorChip) -> DeviceRecord | None:
        """Classify one part; ``None`` for a clean (defect-free) chip.

        The per-chip core of :meth:`classify`, exposed so streaming
        consumers (:mod:`repro.experiment.streaming`) can fold records
        into sufficient statistics without materializing a lot.
        """
        if not chip.is_defective:
            return None
        failed_standard = any(
            self.bench.chip_fails(chip, self.test, self.conditions[n])
            for n in STANDARD_NAMES
        )
        if failed_standard:
            return DeviceRecord(chip, True)
        failed = frozenset(
            name for name in STRESS_NAMES
            if self.bench.chip_fails(chip, self.test, self.conditions[name])
        )
        return DeviceRecord(chip, False, failed)

    def classify_batch(self, chips: Sequence[VeqtorChip],
                       evaluate_defects: Callable[..., Any],
                       ) -> list[DeviceRecord | None]:
        """:meth:`classify_chip` over a batch of chips, one
        ``evaluate_defects`` call per condition.

        ``evaluate_defects`` is a behaviour model's per-defect hook
        (see :func:`~repro.defects.behavior.defect_kernel`): element
        ``i`` of its answer is ``fails_condition(defects[i],
        condition)``.  The batch's defects are grouped by site class
        once, for all five conditions.  A chip fails a condition when
        the fault-free timing check fails or any of its defects is
        detected -- the quick-mode verdict of
        :meth:`~repro.experiment.veqtor.VeqtorTestBench.chip_fails` --
        and each record is built as :meth:`classify_chip` builds it:
        the standard screen first, then the stress-fail set.

        Returns:
            One entry per chip, in order (``None`` for a clean chip).

        Raises:
            ValueError: the hook answered with the wrong shape.
        """
        defects: list[Defect] = []
        owners: list[int] = []
        for position, chip in enumerate(chips):
            chip_defects = chip.all_defects
            defects += chip_defects
            owners += [position] * len(chip_defects)
        batch = DefectBatch(defects)
        owner = np.array(owners, dtype=np.intp)
        fails: dict[str, np.ndarray] = {}
        for name in STANDARD_NAMES + STRESS_NAMES:
            condition = self.conditions[name]
            if not self.bench.meets_timing(condition):
                fails[name] = np.ones(len(chips), dtype=bool)
                continue
            detected = np.asarray(evaluate_defects(batch, condition),
                                  dtype=bool)
            if detected.shape != (len(batch),):
                raise ValueError(
                    f"evaluate_defects returned shape {detected.shape} "
                    f"for {len(batch)} defects")
            fails[name] = np.zeros(len(chips), dtype=bool)
            fails[name][owner[detected]] = True
        defective = np.bincount(owner, minlength=len(chips)) > 0
        standard = np.logical_or.reduce([fails[n] for n in STANDARD_NAMES])
        region = sum(fails[n].astype(np.intp) << bit
                     for bit, n in enumerate(STRESS_NAMES))
        records: list[DeviceRecord | None] = []
        for chip, is_defective, failed_standard, code in zip(
                chips, defective.tolist(), standard.tolist(),
                region.tolist()):
            if not is_defective:
                records.append(None)
            elif failed_standard:
                records.append(DeviceRecord(chip, True))
            else:
                records.append(DeviceRecord(chip, False,
                                            _STRESS_REGIONS[code]))
        return records

    def classify(self, chips: list[VeqtorChip]) -> ExperimentResult:
        """Classify a lot; clean chips short-circuit for speed."""
        result = ExperimentResult(n_devices=len(chips))
        for chip in chips:
            record = self.classify_chip(chip)
            if record is None:
                continue
            if record.failed_standard:
                result.n_standard_fails += 1
            result.records.append(record)
        return result
