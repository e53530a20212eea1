"""Tests for repro.ifa.critical_area."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ifa import critical_area
from repro.ifa.critical_area import (
    BLOCK_ROWS,
    AdjacentPair,
    find_adjacent_pairs,
    open_weight,
    short_weight,
    total_short_weight,
)
from repro.ifa.layout import Rect, SramLayout
from repro.memory.geometry import MemoryGeometry


class TestWeights:
    def test_short_weight_formula(self):
        # w = L / (2 s)
        assert short_weight(0.5, 2.0) == pytest.approx(2.0)

    def test_short_weight_zero_length(self):
        assert short_weight(0.5, 0.0) == 0.0

    def test_short_weight_invalid_spacing(self):
        with pytest.raises(ValueError):
            short_weight(0.0, 1.0)

    @given(st.floats(min_value=0.1, max_value=2.0),
           st.floats(min_value=0.1, max_value=10.0))
    def test_closer_spacing_higher_weight(self, s, length):
        assert short_weight(s / 2, length) > short_weight(s, length)

    def test_open_weight_formula(self):
        assert open_weight(0.25, 1.0) == pytest.approx(2.0)

    def test_open_weight_invalid(self):
        with pytest.raises(ValueError):
            open_weight(0.0, 1.0)


class TestAdjacency:
    def test_horizontal_neighbours_found(self):
        a = Rect("metal1", 0.0, 0.0, 1.0, 1.0, "A")
        b = Rect("metal1", 1.3, 0.0, 2.3, 1.0, "B")
        pairs = find_adjacent_pairs([a, b])
        assert len(pairs) == 1
        assert pairs[0].spacing == pytest.approx(0.3)
        assert pairs[0].facing_length == pytest.approx(1.0)

    def test_vertical_neighbours_found(self):
        a = Rect("metal1", 0.0, 0.0, 2.0, 1.0, "A")
        b = Rect("metal1", 0.0, 1.4, 2.0, 2.0, "B")
        pairs = find_adjacent_pairs([a, b])
        assert len(pairs) == 1
        assert pairs[0].spacing == pytest.approx(0.4)
        assert pairs[0].facing_length == pytest.approx(2.0)

    def test_different_layers_ignored(self):
        a = Rect("metal1", 0.0, 0.0, 1.0, 1.0, "A")
        b = Rect("metal2", 1.2, 0.0, 2.2, 1.0, "B")
        assert find_adjacent_pairs([a, b]) == []

    def test_same_net_ignored(self):
        a = Rect("metal1", 0.0, 0.0, 1.0, 1.0, "N")
        b = Rect("metal1", 1.2, 0.0, 2.2, 1.0, "N")
        assert find_adjacent_pairs([a, b]) == []

    def test_far_apart_ignored(self):
        a = Rect("metal1", 0.0, 0.0, 1.0, 1.0, "A")
        b = Rect("metal1", 5.0, 0.0, 6.0, 1.0, "B")
        assert find_adjacent_pairs([a, b], max_spacing=1.0) == []

    def test_diagonal_no_overlap_ignored(self):
        a = Rect("metal1", 0.0, 0.0, 1.0, 1.0, "A")
        b = Rect("metal1", 1.2, 1.2, 2.2, 2.2, "B")
        assert find_adjacent_pairs([a, b]) == []

    def test_total_weight_accumulates(self):
        a = Rect("metal1", 0.0, 0.0, 1.0, 1.0, "A")
        b = Rect("metal1", 1.2, 0.0, 2.2, 1.0, "B")
        c = Rect("metal1", 2.4, 0.0, 3.4, 1.0, "C")
        pairs = find_adjacent_pairs([a, b, c])
        assert len(pairs) == 2
        assert total_short_weight(pairs) == pytest.approx(
            2 * short_weight(0.2, 1.0))

    def test_infinite_spacing_is_legal(self):
        a = Rect("metal1", 0.0, 0.0, 1.0, 1.0, "A")
        b = Rect("metal1", 50.0, 0.0, 51.0, 1.0, "B")
        pairs = find_adjacent_pairs([a, b], max_spacing=math.inf)
        assert [(p.spacing, p.facing_length) for p in pairs] == [(49.0, 1.0)]

    @pytest.mark.parametrize("max_spacing", [0.0, -1.0, math.nan, -math.inf])
    def test_non_positive_spacing_rejected(self, max_spacing):
        a = Rect("metal1", 0.0, 0.0, 1.0, 1.0, "A")
        b = Rect("metal1", 1.2, 0.0, 2.2, 1.0, "B")
        with pytest.raises(ValueError, match="max_spacing"):
            find_adjacent_pairs([a, b], max_spacing=max_spacing)


# ----------------------------------------------------------------------
# Differential test: the blocked kernel against a scalar pair loop.


def _scalar_facing(a, b, max_spacing):
    """Reference adjacency test for one pair (the pre-kernel code)."""
    gap_x = max(b.x0 - a.x1, a.x0 - b.x1)
    overlap_y = min(a.y1, b.y1) - max(a.y0, b.y0)
    gap_y = max(b.y0 - a.y1, a.y0 - b.y1)
    overlap_x = min(a.x1, b.x1) - max(a.x0, b.x0)
    candidates = []
    if 0.0 < gap_x <= max_spacing and overlap_y > 0.0:
        candidates.append((gap_x, overlap_y))
    if 0.0 < gap_y <= max_spacing and overlap_x > 0.0:
        candidates.append((gap_y, overlap_x))
    if not candidates:
        return None
    spacing, length = max(candidates, key=lambda c: c[1])
    return AdjacentPair(a, b, spacing, length)


def scalar_pairs(rects, max_spacing=1.0):
    """Reference O(n^2) scan: per layer in first-seen order, i < j."""
    by_layer = {}
    for r in rects:
        by_layer.setdefault(r.layer, []).append(r)
    pairs = []
    for layer_rects in by_layer.values():
        n = len(layer_rects)
        for i in range(n):
            for j in range(i + 1, n):
                a, b = layer_rects[i], layer_rects[j]
                if a.net == b.net:
                    continue
                pair = _scalar_facing(a, b, max_spacing)
                if pair is not None:
                    pairs.append(pair)
    return pairs


def assert_identical(rects, max_spacing=1.0):
    """Kernel and reference agree on order, identity and float bits."""
    def key(pairs):
        return [(id(p.a), id(p.b), p.spacing.hex(), p.facing_length.hex())
                for p in pairs]

    got = find_adjacent_pairs(rects, max_spacing)
    want = scalar_pairs(rects, max_spacing)
    assert key(got) == key(want)
    return got


class TestKernelMatchesScalar:
    def test_full_window(self):
        layout = SramLayout(MemoryGeometry(512, 64, 8))
        assert (layout.gen_rows, layout.gen_cols) == (16, 16)
        assert len(assert_identical(layout.rects)) == 2172

    @pytest.mark.parametrize("geometry, expected", [
        ((16, 1, 2, 1), 296),
        ((8, 2, 1, 1), 154),
        ((4, 1, 4, 2), 160),
        ((1, 1, 1, 1), None),
        ((3, 2, 3, 1), None),
    ])
    def test_smaller_windows(self, geometry, expected):
        pairs = assert_identical(SramLayout(MemoryGeometry(*geometry)).rects)
        if expected is not None:
            assert len(pairs) == expected

    @pytest.mark.parametrize("block_rows", [1, 2, 7])
    def test_block_size_does_not_change_result(self, monkeypatch,
                                               block_rows):
        rects = SramLayout(MemoryGeometry(8, 2, 4)).rects
        want = find_adjacent_pairs(rects)
        monkeypatch.setattr(critical_area, "BLOCK_ROWS", block_rows)
        got = assert_identical(rects)
        assert got == want

    @pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_layer_sizes_around_block(self, n):
        # A 5-wide grid of 1x1 tiles 0.25 apart: every tile faces its
        # neighbours on both axes, so pairs straddle the block boundary.
        rects = [Rect("metal1", 1.25 * (k % 5), 1.25 * (k // 5),
                      1.25 * (k % 5) + 1.0, 1.25 * (k // 5) + 1.0, f"n{k % 3}")
                 for k in range(n)]
        rects.append(Rect("poly", 0.0, 0.0, 1.0, 1.0, "solo"))
        pairs = assert_identical(rects)
        assert any(rects.index(p.a) < BLOCK_ROWS <= rects.index(p.b)
                   for p in pairs) == (n > BLOCK_ROWS)

    @pytest.mark.parametrize("boxes, max_spacing, expected", [
        # Touching edges: gap == 0 is not a bridge site.
        ([(0.0, 0.0, 1.0, 1.0, "A"), (1.0, 0.0, 2.0, 1.0, "B")], 1.0, []),
        # Gap exactly max_spacing is included.
        ([(0.0, 0.0, 1.0, 1.0, "A"), (1.5, 0.0, 2.5, 1.0, "B")],
         0.5, [(0.5, 1.0)]),
        # Zero overlap (corner to corner) is excluded.
        ([(0.0, 0.0, 1.0, 1.0, "A"), (1.5, 1.0, 2.5, 2.0, "B")], 1.0, []),
        # overlap_x == overlap_y: a gap on one axis makes the other
        # axis's overlap negative, so equal overlaps only occur on
        # overlapping or diagonal boxes, which never face.
        ([(0.0, 0.0, 1.0, 1.0, "A"), (0.5, 0.5, 1.5, 1.5, "B"),
          (2.0, 2.0, 3.0, 3.0, "C")], 1.0, []),
        # Same-net neighbours are skipped.
        ([(0.0, 0.0, 1.0, 1.0, "A"), (1.5, 0.0, 2.5, 1.0, "A")], 1.0, []),
        # Vertical facing pair.
        ([(0.0, 0.0, 2.0, 1.0, "A"), (0.5, 1.25, 1.0, 2.0, "B")],
         1.0, [(0.25, 0.5)]),
        ([], 1.0, []),
    ], ids=["touching", "gap-at-limit", "zero-overlap", "overlap-tie",
            "same-net", "vertical", "empty"])
    def test_edge_cases(self, boxes, max_spacing, expected):
        rects = [Rect("metal1", *box) for box in boxes]
        pairs = assert_identical(rects, max_spacing)
        assert [(p.spacing, p.facing_length) for p in pairs] == expected

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["metal1", "metal2", "poly"]),
                      st.integers(0, 12), st.integers(0, 12),
                      st.integers(1, 4), st.integers(1, 4),
                      st.sampled_from(["A", "B", "C"])),
            max_size=60),
        st.sampled_from([0.25, 0.5, 0.75, 1.0, math.inf]),
        st.sampled_from([0.25, 0.1]),
    )
    @example([("metal1", 0, 0, 2, 2, "A"), ("metal1", 2, 0, 2, 2, "B")],
             0.25, 0.25)
    @example([("metal1", 0, 0, 2, 2, "A"), ("metal1", 3, 0, 2, 2, "B")],
             0.25, 0.25)
    @example([("metal1", 0, 0, 2, 2, "A"), ("metal1", 3, 2, 2, 2, "B")],
             1.0, 0.25)
    @example([("metal1", 0, 0, 2, 2, "A"), ("metal1", 3, 0, 2, 2, "A")],
             1.0, 0.25)
    @example([("metal1", 0, 0, 2, 2, "A"), ("metal1", 1, 1, 2, 2, "B")],
             1.0, 0.25)
    @example([("metal1", 0, 0, 2, 2, "A"), ("poly", 3, 0, 2, 2, "B")],
             1.0, 0.1)
    @example([], 1.0, 0.25)
    def test_property_grid_snapped(self, boxes, max_spacing, grid):
        # Grid-snapped coordinates make exact ties common: touching
        # edges, gaps equal to max_spacing, zero and equal overlaps.
        # The 0.1 grid adds inexact float differences to the mix.
        rects = [Rect(layer, x * grid, y * grid, (x + w) * grid,
                      (y + h) * grid, net)
                 for layer, x, y, w, h, net in boxes]
        assert_identical(rects, max_spacing)
