"""Order statistics and run-validity checks shared by every workload."""

from __future__ import annotations

import math
from collections.abc import Sequence

#: A reported percentile must have at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q < 100) of ``values``.

    Refuses (raises :class:`TooFewSamples`) unless at least
    :data:`MIN_TAIL_SAMPLES` samples lie beyond the chosen rank, so a
    "p99" is never the maximum of a few hundred samples in disguise.
    The median is exempt: it only needs one sample.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(values)
    if n == 0:
        raise TooFewSamples("no samples")
    rank = math.ceil(q / 100.0 * n)
    if q != 50.0 and n - rank < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"at least {MIN_TAIL_SAMPLES} are required "
            f"(need n >= {min_samples_for(q)})")
    return sorted(values)[rank - 1]


def min_samples_for(q: float) -> int:
    """Smallest sample count for which :func:`percentile` reports ``q``."""
    n = 1
    while n - math.ceil(q / 100.0 * n) < MIN_TAIL_SAMPLES:
        n += 1
    return n


def median(values: Sequence[float]) -> float:
    """Nearest-rank median (a value that was actually measured)."""
    return percentile(values, 50.0)


def backlog_grows(samples: Sequence[int], slack: float = 1.0) -> bool:
    """Whether a client backlog trace shows a growing queue.

    ``samples`` are backlog depths taken at a fixed interval through one
    steady-rate phase.  The queue grows when the mean depth over the
    last third exceeds the mean over the first third by more than
    ``slack`` requests: a queue that only fluctuates around a level has
    equal thirds, while one fed faster than it drains climbs.
    """
    if len(samples) < 3:
        return False
    third = len(samples) // 3
    head = samples[:third]
    tail = samples[-third:]
    return sum(tail) / len(tail) - sum(head) / len(head) > slack


def over_limit_share(latencies_s: Sequence[float | None],
                     limit_s: float) -> float:
    """Share of requests that missed ``limit_s``.

    A failed request is passed as ``None`` and always counts as over
    the limit: a refused request must not make a rate look better.
    """
    if not latencies_s:
        return 1.0
    over = sum(1 for lat in latencies_s if lat is None or lat > limit_s)
    return over / len(latencies_s)
