"""Synthetic SRAM layout for inductive fault analysis.

The paper extracts bridge and open sites from the real layout with a
Philips-internal tool (PIA).  Without that layout we generate a
*structurally faithful* synthetic one: a 6T-cell tile (storage nodes,
rails, word line, bit-line pair) stepped into an array, a row-decoder
strip and a sense-amp/periphery strip -- enough geometry that
critical-area extraction produces the right *kinds* of neighbouring-net
pairs with believable relative weights.

Geometry is expressed in micrometres on named layers matching
:class:`repro.circuit.technology.Technology.layers`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.memory.geometry import MemoryGeometry


@dataclass(frozen=True)
class Rect:
    """An axis-aligned layout rectangle carrying a net.

    Attributes:
        layer: Layer name ("poly", "metal1", ...).
        x0, y0, x1, y1: Corners in um (x0 < x1, y0 < y1).
        net: Net name; site classification keys off its structure, e.g.
            ``cell[12,3].t``, ``vdd``, ``wl[7]``, ``bl[5]``.
    """

    layer: str
    x0: float
    y0: float
    x1: float
    y1: float
    net: str

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.x0, self.y0, self.x1, self.y1))):
            raise ValueError(f"non-finite coordinate on {self.net}")
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError(f"degenerate rectangle on {self.net}")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class Via:
    """A via/contact site (candidate for a resistive open).

    Attributes:
        x, y: Position in um.
        net: The net the via belongs to.
        kind: Structural role ("cell_pullup", "bitline", "decoder_input",
            "cell_access", "periphery") used for open-site
            classification.
    """

    x: float
    y: float
    net: str
    kind: str


@dataclass(frozen=True)
class CellTileSpec:
    """Dimensions of the 6T cell tile (um), 0.18 um-generation defaults.

    The tile is ~1.6 x 1.2 um (~2 um^2), matching the area assumption of
    :meth:`repro.memory.geometry.MemoryGeometry.array_area_um2`.
    """

    width: float = 1.6
    height: float = 1.2
    node_width: float = 0.30
    node_spacing: float = 0.25
    rail_width: float = 0.20
    bitline_width: float = 0.24
    bitline_spacing: float = 0.28
    wordline_width: float = 0.18


class SramLayout:
    """Synthetic layout of one SRAM block.

    Args:
        geometry: Memory organisation (rows x bitline-pairs).
        tile: Cell tile dimensions.
        max_rows / max_cols: Cap on the *generated* array window.  The
            statistical structure of the layout is periodic, so a modest
            window is enough for extraction; weights are scaled back up
            by :attr:`replication_factor`.  Each must be at least 1.

    Raises:
        ValueError: ``max_rows`` or ``max_cols`` is below 1.
    """

    def __init__(self, geometry: MemoryGeometry,
                 tile: CellTileSpec | None = None,
                 max_rows: int = 16, max_cols: int = 16) -> None:
        for name, value in (("max_rows", max_rows), ("max_cols", max_cols)):
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        self.geometry = geometry
        self.tile = tile if tile is not None else CellTileSpec()
        self.gen_rows = min(geometry.rows, max_rows)
        self.gen_cols = min(geometry.bitlines_per_block, max_cols)
        self.rects: list[Rect] = []
        self.vias: list[Via] = []
        self._build()

    @property
    def replication_factor(self) -> float:
        """How many real cells each generated cell stands for."""
        real = self.geometry.rows * self.geometry.bitlines_per_block
        return (real / (self.gen_rows * self.gen_cols)) * self.geometry.blocks

    def _build(self) -> None:
        t = self.tile
        for row in range(self.gen_rows):
            y0 = row * t.height
            # Word line spanning the row (poly).
            self.rects.append(Rect(
                "poly", 0.0, y0 + 0.5 * t.height - t.wordline_width / 2,
                self.gen_cols * t.width,
                y0 + 0.5 * t.height + t.wordline_width / 2, f"wl[{row}]"))
            for col in range(self.gen_cols):
                self._build_cell(row, col)
        # Bit lines (metal2, vertical, one per column) and their pair
        # spacing; the complement line of the pair runs alongside.
        for col in range(self.gen_cols):
            x0 = col * t.width + 0.2
            self.rects.append(Rect(
                "metal2", x0, 0.0, x0 + t.bitline_width,
                self.gen_rows * t.height, f"bl[{col}]"))
            xb = x0 + t.bitline_width + t.bitline_spacing
            self.rects.append(Rect(
                "metal2", xb, 0.0, xb + t.bitline_width,
                self.gen_rows * t.height, f"blb[{col}]"))
        # Supply rails (metal1, horizontal, shared between cell rows).
        for row in range(self.gen_rows + 1):
            y = row * t.height
            net = "vdd" if row % 2 == 0 else "gnd"
            self.rects.append(Rect(
                "metal1", 0.0, y - t.rail_width / 2,
                self.gen_cols * t.width, y + t.rail_width / 2, net))
        self._build_decoder_strip()
        self._build_periphery_strip()

    def _build_cell(self, row: int, col: int) -> None:
        t = self.tile
        x0 = col * t.width
        y0 = row * t.height
        cx = x0 + t.width / 2
        # True and complement storage nodes (diff/metal1 islands).
        self.rects.append(Rect(
            "metal1", cx - t.node_spacing / 2 - t.node_width,
            y0 + 0.2, cx - t.node_spacing / 2, y0 + t.height - 0.2,
            f"cell[{row},{col}].t"))
        self.rects.append(Rect(
            "metal1", cx + t.node_spacing / 2,
            y0 + 0.2, cx + t.node_spacing / 2 + t.node_width,
            y0 + t.height - 0.2, f"cell[{row},{col}].c"))
        # Vias: pull-up contacts, access contacts.
        self.vias.append(Via(cx - t.node_spacing / 2 - t.node_width / 2,
                             y0 + t.height - 0.25,
                             f"cell[{row},{col}].t", "cell_pullup"))
        self.vias.append(Via(cx + t.node_spacing / 2 + t.node_width / 2,
                             y0 + 0.25,
                             f"cell[{row},{col}].c", "cell_access"))
        self.vias.append(Via(x0 + 0.25, y0 + t.height / 2,
                             f"cell[{row},{col}].bl_contact", "bitline"))

    def _build_decoder_strip(self) -> None:
        """Row-decoder strip to the left of the array: one gate stack per
        generated row plus shared address-phase wiring."""
        t = self.tile
        x_base = -4.0
        for row in range(self.gen_rows):
            y0 = row * t.height
            self.rects.append(Rect(
                "poly", x_base, y0 + 0.2, x_base + 2.6, y0 + 0.5,
                f"dec.nand[{row}]"))
            self.rects.append(Rect(
                "metal1", x_base, y0 + 0.6, x_base + 2.6, y0 + 0.9,
                f"dec.wldrv[{row}]"))
            self.vias.append(Via(x_base + 1.3, y0 + 0.35,
                                 f"dec.addr_in[{row % 4}]", "decoder_input"))
        # Address phase lines running the strip's height.
        for bit in range(4):
            x = x_base - 0.6 - bit * 0.5
            self.rects.append(Rect(
                "metal2", x, 0.0, x + 0.24, self.gen_rows * t.height,
                f"dec.a[{bit}]"))

    def _build_periphery_strip(self) -> None:
        """Sense-amp / IO strip below the array."""
        t = self.tile
        y_base = -3.0
        for col in range(self.gen_cols):
            x0 = col * t.width
            self.rects.append(Rect(
                "metal1", x0 + 0.1, y_base, x0 + 0.6, y_base + 2.2,
                f"sa.in[{col}]"))
            self.rects.append(Rect(
                "metal1", x0 + 0.9, y_base, x0 + 1.4, y_base + 2.2,
                f"sa.out[{col}]"))
            self.vias.append(Via(x0 + 0.35, y_base + 1.0, f"sa.in[{col}]",
                                 "periphery"))

    # ------------------------------------------------------------------
    def rects_on_layer(self, layer: str) -> list[Rect]:
        return [r for r in self.rects if r.layer == layer]

    def stats(self) -> dict[str, int]:
        """Counts per layer plus via kinds (for reports and tests)."""
        out: dict[str, int] = {}
        for r in self.rects:
            out[f"rect[{r.layer}]"] = out.get(f"rect[{r.layer}]", 0) + 1
        for v in self.vias:
            out[f"via[{v.kind}]"] = out.get(f"via[{v.kind}]", 0) + 1
        return out
