"""Sufficient statistics for the streaming experiment reduce step.

:class:`ExperimentAccumulator` is everything the experiment reports --
Venn region counts, standard-screen fails, per-condition escape/DPM
tallies, diagnosis hint histograms -- in O(classes) memory, never
O(devices).  It is the map-reduce value type: each shard evaluator
returns one as its payload, the runner merges them in shard order, and
the merged accumulator is the lot-level result.  The ``merge()``
contract mirrors :meth:`repro.obs.metrics.MetricsRegistry.merge`
(in-place, field-wise additive, commutative and associative up to the
payload encoding -- property-tested).

``as_payload()`` / ``from_payload()`` round-trip the accumulator
through plain JSON-able dicts with sorted keys, so canonical-JSON
equality of payloads is the engine's byte-identity oracle against the
legacy path (``scheme="legacy"``, single shard).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.experiment.classify import DeviceRecord, ExperimentResult
from repro.experiment.diagnosis import LotDiagnosis
from repro.experiment.venn import VennCounts

#: Separator joining a stress-fail set into a payload key.  Condition
#: names never contain it ("at-speed" uses a hyphen), so the encoding
#: round-trips.
_REGION_SEP = "+"


def _region_key(region: frozenset[str]) -> str:
    """Canonical payload key for one exact stress-fail set."""
    return _REGION_SEP.join(sorted(region))


class PayloadError(ValueError):
    """A shard payload is not a well-formed accumulator dict."""


def _count(value: Any, where: str) -> int:
    """``value`` if it is a non-negative int (not a bool), else raise."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise PayloadError(
            f"{where} must be a non-negative int, got {value!r}")
    return value


def _mapping(value: Any, where: str) -> dict[str, Any]:
    """``value`` if it is a dict, else raise."""
    if not isinstance(value, dict):
        raise PayloadError(f"{where} must be an object, got {value!r}")
    return value


@dataclass
class ExperimentAccumulator:
    """Mergeable sufficient statistics of a (partial) experiment.

    Attributes:
        devices: Devices covered (including clean ones).
        defective: Devices carrying at least one defect.
        standard_fails: Devices failing the conventional screen.
        errors: Devices lost to poisoned shards (counted, not
            classified; ``0`` outside fault-injection runs).
        class_counts: Exact stress-fail set -> interesting-device count
            (the Venn regions).
        hint_counts: Condition -> Counter of bitmap defect-class hint
            values (populated only when diagnosis is enabled).
    """

    devices: int = 0
    defective: int = 0
    standard_fails: int = 0
    errors: int = 0
    class_counts: dict[frozenset[str], int] = field(default_factory=dict)
    hint_counts: dict[str, Counter] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Map side
    # ------------------------------------------------------------------
    def observe(self, record: DeviceRecord) -> None:
        """Fold one defective device's classification in."""
        self.defective += 1
        if record.failed_standard:
            self.standard_fails += 1
        elif record.failed_stress:
            key = record.failed_stress
            self.class_counts[key] = self.class_counts.get(key, 0) + 1

    def observe_hints(self, hints: dict[str, Any]) -> None:
        """Fold one diagnosed device's per-condition hints in.

        Accepts :class:`~repro.tester.bitmap.DefectClassHint` values or
        their string values (the payload form).
        """
        for condition, hint in hints.items():
            value = getattr(hint, "value", hint)
            self.hint_counts.setdefault(condition, Counter())[value] += 1

    # ------------------------------------------------------------------
    # Reduce side
    # ------------------------------------------------------------------
    def merge(self, other: "ExperimentAccumulator") -> "ExperimentAccumulator":
        """Fold ``other`` in place and return self (additive merge)."""
        self.devices += other.devices
        self.defective += other.defective
        self.standard_fails += other.standard_fails
        self.errors += other.errors
        for region, n in other.class_counts.items():
            self.class_counts[region] = self.class_counts.get(region, 0) + n
        for condition, counts in other.hint_counts.items():
            self.hint_counts.setdefault(condition, Counter())
            self.hint_counts[condition] += counts
        return self

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def interesting(self) -> int:
        """Interesting devices (passed standard, failed >= 1 stress)."""
        return sum(self.class_counts.values())

    @property
    def venn(self) -> VennCounts:
        """The Venn regions of the accumulated interesting devices."""
        return VennCounts.from_class_counts(self.class_counts)

    def escape_dpm(self, condition: str) -> float:
        """Escapes-per-million one stress condition would have caught.

        Zero for an empty accumulator (nothing tested, nothing
        escaped).
        """
        if self.devices <= 0:
            return 0.0
        caught = sum(n for region, n in self.class_counts.items()
                     if condition in region)
        return 1e6 * caught / self.devices

    # ------------------------------------------------------------------
    # Payload round-trip
    # ------------------------------------------------------------------
    def as_payload(self) -> dict[str, Any]:
        """JSON-able dict with sorted keys (the checkpoint payload).

        Canonical-JSON equality of payloads is the engine's
        byte-identity oracle, so every container here is sorted.
        """
        return {
            "devices": self.devices,
            "defective": self.defective,
            "standard_fails": self.standard_fails,
            "errors": self.errors,
            "classes": {
                _region_key(region): self.class_counts[region]
                for region in sorted(self.class_counts, key=_region_key)
            },
            "hints": {
                condition: {
                    value: counts[value] for value in sorted(counts)
                }
                for condition, counts in sorted(self.hint_counts.items())
            },
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "ExperimentAccumulator":
        """Rebuild an accumulator from :meth:`as_payload` output.

        A checkpoint's checksum proves only that its bytes are the ones
        written, so the payload is validated as outside input.

        Raises:
            PayloadError: not a dict, a required count missing, a count
                that is not a non-negative int, or more defective
                devices than devices.
        """
        payload = _mapping(payload, "payload")
        for key in ("devices", "defective", "standard_fails"):
            if key not in payload:
                raise PayloadError(f"payload lacks {key!r}")
        acc = cls(
            devices=_count(payload["devices"], "devices"),
            defective=_count(payload["defective"], "defective"),
            standard_fails=_count(payload["standard_fails"],
                                  "standard_fails"),
            errors=_count(payload.get("errors", 0), "errors"),
        )
        if acc.defective > acc.devices:
            raise PayloadError(
                f"defective ({acc.defective}) exceeds devices "
                f"({acc.devices})")
        classes = _mapping(payload.get("classes", {}), "classes")
        for key, n in classes.items():
            acc.class_counts[frozenset(key.split(_REGION_SEP))] = _count(
                n, f"classes[{key!r}]")
        hints = _mapping(payload.get("hints", {}), "hints")
        for condition, counts in hints.items():
            where = f"hints[{condition!r}]"
            acc.hint_counts[condition] = Counter({
                value: _count(n, f"{where}[{value!r}]")
                for value, n in _mapping(counts, where).items()})
        return acc

    @classmethod
    def from_experiment(cls, result: ExperimentResult,
                        diagnosis: LotDiagnosis | None = None,
                        ) -> "ExperimentAccumulator":
        """Build from a legacy in-memory :class:`ExperimentResult`.

        The equivalence-oracle constructor: a ``scheme="legacy"``
        streaming run must produce a payload byte-identical (as
        canonical JSON) to this one built from
        ``classifier.classify(generator.generate())``.
        """
        acc = cls(devices=result.n_devices)
        for record in result.records:
            acc.observe(record)
        if diagnosis is not None:
            for condition, counts in diagnosis.hint_histogram.items():
                for hint, n in counts.items():
                    acc.hint_counts.setdefault(
                        condition, Counter())[hint.value] += n
        return acc
