"""Critical-area computation for shorts and opens.

Classic inductive-fault-analysis machinery [Shen/Maly/Ferguson 85]: for a
circular spot defect of diameter ``x``, the *critical area* ``A(x)`` is
the region where the defect centre causes a fault.  Integrating over the
defect size distribution (the standard ``k / x^3`` tail) yields a
per-site likelihood weight:

* **shorts** between two parallel edges of length ``L`` at spacing
  ``s``: ``A(x) = L * (x - s)`` for ``x > s``, giving weight
  ``w = ∫ A(x) k x^-3 dx = k * L / (2 s)``;
* **opens** cutting a wire of width ``w_w`` and length ``L``:
  ``A(x) = L * (x - w_w)`` for ``x > w_w``, weight ``k * L / (2 w_w)``
  -- plus per-via weights for via/contact opens.

Only relative weights matter downstream (they are normalised into a
probability mix), so ``k`` is taken as 1.

Bridge pairs come from a blocked numpy kernel
(:func:`find_adjacent_pairs`) that returns the pairs of a scalar pair
loop in the same order with bit-identical floats.
Exact-path equivalence: tests/ifa/test_critical_area.py
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ifa.layout import Rect


@dataclass(frozen=True)
class AdjacentPair:
    """Two same-layer rectangles facing each other.

    Attributes:
        a, b: The rectangles.
        spacing: Edge-to-edge distance (um).
        facing_length: Overlap length of the facing edges (um).
    """

    a: Rect
    b: Rect
    spacing: float
    facing_length: float


def short_weight(spacing: float, facing_length: float) -> float:
    """Relative likelihood of a short between two facing edges."""
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    if facing_length <= 0:
        return 0.0
    return facing_length / (2.0 * spacing)


def open_weight(width: float, length: float) -> float:
    """Relative likelihood of an open cutting a wire segment."""
    if width <= 0:
        raise ValueError("width must be positive")
    if length <= 0:
        return 0.0
    return length / (2.0 * width)


#: Rows of the pair matrix compared per kernel step.  Each step holds a
#: few ``BLOCK_ROWS x n`` float64 arrays, so peak memory stays linear in
#: the layer's rectangle count instead of quadratic.
BLOCK_ROWS = 16


def find_adjacent_pairs(rects: list[Rect], max_spacing: float = 1.0,
                        ) -> list[AdjacentPair]:
    """All same-layer, different-net facing pairs within ``max_spacing``.

    Rectangles are grouped by layer in first-seen order.  Within a layer
    every pair ``i < j`` (list order) is tested: a horizontal gap
    ``0 < gap_x <= max_spacing`` with positive vertical overlap, or a
    vertical gap ``0 < gap_y <= max_spacing`` with positive horizontal
    overlap.  A gap on one axis makes that axis's overlap negative, so
    at most one orientation qualifies; the kernel still applies the
    scalar rule of the longer facing edge winning, horizontal on a tie.

    The test runs as a blocked numpy kernel: :data:`BLOCK_ROWS` rows of
    the pair matrix against every later rectangle per step.  Pairs come
    out in row-major ``(i, j)`` order per layer and their ``spacing`` /
    ``facing_length`` are the same ``max``/``min`` differences a scalar
    pair loop computes, so the result is bit-identical to one; that
    order feeds float sums downstream and is part of the contract.

    Raises:
        ValueError: ``max_spacing`` is not positive (or is NaN).
    """
    if not max_spacing > 0.0:
        raise ValueError(f"max_spacing must be positive, got {max_spacing!r}")
    by_layer: dict[str, list[Rect]] = {}
    for r in rects:
        by_layer.setdefault(r.layer, []).append(r)

    pairs: list[AdjacentPair] = []
    for layer_rects in by_layer.values():
        pairs.extend(_layer_pairs(layer_rects, max_spacing))
    return pairs


def _layer_pairs(rects: list[Rect], max_spacing: float) -> list[AdjacentPair]:
    """Facing pairs among one layer's rectangles, in ``(i, j)`` order."""
    n = len(rects)
    if n < 2:
        return []
    x0, y0, x1, y1 = np.array(
        [(r.x0, r.y0, r.x1, r.y1) for r in rects], dtype=np.float64).T
    net_ids: dict[str, int] = {}
    nets = np.array([net_ids.setdefault(r.net, len(net_ids)) for r in rects])
    index = np.arange(n)

    pairs: list[AdjacentPair] = []
    # Row i only pairs with columns j > i, so the last row and every
    # column left of the block are skipped.
    for lo in range(0, n - 1, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n - 1)
        a = slice(lo, hi)
        b = slice(lo + 1, n)
        ax0, ay0 = x0[a, None], y0[a, None]
        ax1, ay1 = x1[a, None], y1[a, None]
        # Horizontal gap (a left of b or vice versa) with vertical overlap.
        gap_x = np.maximum(x0[b] - ax1, ax0 - x1[b])
        overlap_y = np.minimum(ay1, y1[b]) - np.maximum(ay0, y0[b])
        # Vertical gap with horizontal overlap.
        gap_y = np.maximum(y0[b] - ay1, ay0 - y1[b])
        overlap_x = np.minimum(ax1, x1[b]) - np.maximum(ax0, x0[b])

        horizontal = (gap_x > 0.0) & (gap_x <= max_spacing) & (overlap_y > 0.0)
        vertical = (gap_y > 0.0) & (gap_y <= max_spacing) & (overlap_x > 0.0)
        hit = ((horizontal | vertical)
               & (index[b] > index[a, None])
               & (nets[b] != nets[a, None]))
        rows, cols = np.nonzero(hit)
        use_y = (vertical & (~horizontal | (overlap_x > overlap_y)))[rows, cols]
        spacing = np.where(use_y, gap_y[rows, cols], gap_x[rows, cols])
        length = np.where(use_y, overlap_x[rows, cols], overlap_y[rows, cols])
        for i, j, s, f in zip((rows + lo).tolist(), (cols + lo + 1).tolist(),
                              spacing.tolist(), length.tolist()):
            pairs.append(AdjacentPair(rects[i], rects[j], s, f))
    return pairs


def total_short_weight(pairs: list[AdjacentPair]) -> float:
    return sum(short_weight(p.spacing, p.facing_length) for p in pairs)
