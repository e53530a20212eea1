"""Shared paths, the result record and the seeded geometry grid."""

from __future__ import annotations

import itertools
import resource
from dataclasses import dataclass, field
from pathlib import Path

from repobench import stats

#: Root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent
#: The program's sources.
SRC = ROOT / "src"
#: Scratch space for one run (databases, span dumps); git-ignored.
WORK = ROOT / ".repobench-work"
#: Fresh processes started per run to time set-up; ``setup_s`` is the
#: median of their spawn-to-ready times.
SETUP_REPEATS = 3
#: Committed oracle digests.
ORACLES = Path(__file__).resolve().parent / "oracles"

#: The paper's geometry range as a grid: rows 64-1024, columns 4-64,
#: bits 8-32, blocks 1-4.  Every flow op and every service query draws
#: from it, and the flow oracle holds one digest per entry.
ROWS = (64, 128, 256, 512, 1024)
COLUMNS = (4, 8, 16, 32, 64)
BITS = (8, 16, 32)
BLOCKS = (1, 2, 4)


def geometry_grid() -> list[tuple[int, int, int, int]]:
    """Every (rows, columns, bits_per_word, blocks) of the grid."""
    return list(itertools.product(ROWS, COLUMNS, BITS, BLOCKS))


def geometry_key(geometry: tuple[int, int, int, int]) -> str:
    """The oracle key of a geometry, e.g. ``512x64x8x1``."""
    return "x".join(str(v) for v in geometry)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class OracleMismatch(RuntimeError):
    """An output differs from its oracle: the run reports nothing."""


@dataclass
class WorkloadResult:
    """Everything one workload run measured.

    Attributes:
        attempted: Ops attempted in the measured window.
        failed: Ops among them that failed.
        e2e: The gated end-to-end metrics every workload reports
            (``setup_s``, ``peak_rss_mb``, ``op_p90_ms``).
        rows: The report lines: (name, value, unit, sample count) under
            the workload's own metric names.
        layer: Per-layer metrics (traced runs only).
        notes: Extra report lines.
    """

    attempted: int
    failed: int
    e2e: dict[str, float] = field(default_factory=dict)
    rows: list[tuple[str, float | None, str, int]] = field(
        default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, value: float | None, unit: str,
            samples: int) -> None:
        """Add one report row."""
        self.rows.append((name, value, unit, samples))

    def add_tail(self, name: str, values: list[float], q: float,
                 scale: float, unit: str) -> None:
        """Add a tail percentile row, or a refusal if too few samples."""
        try:
            value: float | None = stats.percentile(values, q) * scale
        except stats.TooFewSamples as exc:
            value = None
            self.notes.append(f"{name} not reported: {exc}")
        self.add(name, value, unit, len(values))


def finish_trace(result: WorkloadResult, workload: str, plain_p50: float,
                 traced_p50: float, unit: str, spans: int,
                 dump: Path) -> WorkloadResult:
    """State the tracing overhead: traced minus untraced op median."""
    overhead = traced_p50 - plain_p50
    result.layer["trace.overhead_frac"] = overhead / plain_p50
    result.notes.append(
        f"tracing overhead ({workload}): op p50 {traced_p50:.6g} {unit} "
        f"traced - {plain_p50:.6g} {unit} untraced = {overhead:+.6g} "
        f"{unit} ({overhead / plain_p50:+.1%}); {spans} spans in "
        f"{dump.relative_to(ROOT)}")
    return result
