"""Tests for repro.ifa.layout."""

import math

import pytest

from repro.ifa.layout import CellTileSpec, Rect, SramLayout, Via
from repro.memory.geometry import VEQTOR4_INSTANCE, MemoryGeometry


@pytest.fixture(scope="module")
def layout():
    return SramLayout(MemoryGeometry(8, 2, 4), max_rows=8, max_cols=8)


class TestRect:
    def test_properties(self):
        r = Rect("metal1", 0.0, 0.0, 2.0, 1.0, "n")
        assert r.width == 2.0 and r.height == 1.0 and r.area == 2.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Rect("metal1", 1.0, 0.0, 1.0, 1.0, "n")

    @pytest.mark.parametrize("corner", [
        (math.nan, 0.0, 1.0, 1.0),
        (0.0, 0.0, math.inf, 1.0),
        (0.0, -math.inf, 1.0, 1.0),
        (0.0, 0.0, 1.0, math.nan),
    ])
    def test_non_finite_rejected(self, corner):
        with pytest.raises(ValueError, match="non-finite"):
            Rect("metal1", *corner, "A")


class TestWindowSize:
    @pytest.mark.parametrize("kwargs, name", [
        ({"max_rows": 0}, "max_rows"),
        ({"max_cols": 0}, "max_cols"),
        ({"max_rows": -3}, "max_rows"),
    ])
    def test_empty_window_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            SramLayout(MemoryGeometry(8, 2, 4), **kwargs)

    def test_one_cell_window(self):
        layout = SramLayout(MemoryGeometry(8, 2, 4), max_rows=1, max_cols=1)
        assert (layout.gen_rows, layout.gen_cols) == (1, 1)


class TestLayoutStructure:
    def test_has_all_net_families(self, layout):
        nets = {r.net for r in layout.rects}
        assert any(n.startswith("cell[") for n in nets)
        assert "vdd" in nets and "gnd" in nets
        assert any(n.startswith("wl[") for n in nets)
        assert any(n.startswith("bl[") for n in nets)
        assert any(n.startswith("dec.") for n in nets)
        assert any(n.startswith("sa.") for n in nets)

    def test_via_kinds_complete(self, layout):
        kinds = {v.kind for v in layout.vias}
        assert kinds == {"cell_pullup", "cell_access", "bitline",
                         "decoder_input", "periphery"}

    def test_cells_tile_without_overlap(self, layout):
        """Storage-node rects of distinct cells never overlap."""
        nodes = [r for r in layout.rects if r.net.startswith("cell[")
                 and (r.net.endswith(".t") or r.net.endswith(".c"))]
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                no_overlap = (a.x1 <= b.x0 or b.x1 <= a.x0
                              or a.y1 <= b.y0 or b.y1 <= a.y0)
                assert no_overlap, (a.net, b.net)

    def test_window_capped(self):
        layout = SramLayout(VEQTOR4_INSTANCE, max_rows=8, max_cols=8)
        assert layout.gen_rows == 8 and layout.gen_cols == 8
        assert layout.replication_factor > 1000

    def test_replication_exact(self):
        g = MemoryGeometry(8, 2, 4)
        layout = SramLayout(g, max_rows=8, max_cols=8)
        assert layout.replication_factor == pytest.approx(
            g.rows * g.bitlines_per_block / (8 * 8))

    def test_stats(self, layout):
        stats = layout.stats()
        assert stats["via[cell_pullup]"] == 8 * 8
        assert "rect[metal1]" in stats

    def test_rects_on_layer(self, layout):
        m2 = layout.rects_on_layer("metal2")
        assert m2 and all(r.layer == "metal2" for r in m2)


class TestTileSpec:
    def test_cell_area_near_2um2(self):
        t = CellTileSpec()
        assert t.width * t.height == pytest.approx(1.92, rel=0.05)
