"""Step 2 of DeFiNES: back-calculate per-layer tile geometry.

Given a stack, an overlap mode and the tile grid on the stack's final
output, this module computes — per tile and per layer — the required
output region, the region that must actually be computed (the rest comes
from caches), the input region needed, and the cached-data bookkeeping of
Fig. 7.  The stack's *input* feature map participates in overlap caching
too: in cached modes only the new part of a source layer's input window is
fetched from wherever the previous stack left it.

Everything is axis-separable (see :mod:`repro.core.geometry`): tiles are
rectangles, layer transforms act per axis and the branch rule (Fig. 8) is
a per-axis hull.  We therefore compute one geometry sequence per tile
column and one per tile row and combine them — which also yields tile
types (Fig. 6) for free: tiles with identical (column class, row class)
pairs are identical and are evaluated once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..workloads.layer import LayerSpec
from .geometry import EMPTY, Interval, input_interval, tile_edges
from .stacks import Stack
from .strategy import OverlapMode


@dataclass(frozen=True)
class AxisGeometry:
    """Geometry along one axis for one tile position of one feature map.

    For a layer's output: ``required`` is the span consumers need,
    ``fresh`` the newly computed part, ``in_need`` the input span needed
    to compute ``fresh``.  For a stack input feature map: ``required`` is
    the window the source layer reads, ``fresh`` the part fetched from the
    previous stack's output location (the rest sits in the overlap cache),
    and ``in_need`` is unused.
    """

    required: Interval
    fresh: Interval
    in_need: Interval
    cache_used: int  # elements served by the overlap cache this tile
    cache_keep: int  # freshly produced elements to retain for the next tile


def _fresh_part(required: Interval, frontier: int, cached: bool, first: bool) -> Interval:
    if not cached or first:
        return required
    lo = max(required.lo, frontier)
    return Interval(lo, max(required.hi, lo))


def _axis_sequence(
    stack: Stack,
    axis: str,
    edges: list[Interval],
    cached: bool,
) -> tuple[list[dict[str, AxisGeometry]], list[dict[str, AxisGeometry]]]:
    """Back-calculate per-layer and per-stack-input geometry for every
    tile position along one axis.

    Returns ``(layer_slices, input_slices)``: for each position, a dict
    keyed by layer name (layer outputs) and a dict keyed by source-layer
    name (the stack input feature maps they read).
    """
    wl = stack.workload
    layers = stack.layers
    reverse = list(reversed(layers))
    sink_name = stack.sink.name
    sources = {l.name for l in wl.sources()}

    frontier: dict[str, int] = {l.name: 0 for l in layers}
    in_frontier: dict[str, int] = {name: 0 for name in sources}
    layer_slices: list[dict[str, AxisGeometry]] = []
    input_slices: list[dict[str, AxisGeometry]] = []

    for idx, edge in enumerate(edges):
        col: dict[str, AxisGeometry] = {}
        for layer in reverse:
            if layer.name == sink_name:
                required = edge
            else:
                required = EMPTY
                for consumer in wl.successors(layer.name):
                    required = required.hull(
                        input_interval(consumer, col[consumer.name].fresh, axis)
                    )
            fresh = _fresh_part(required, frontier[layer.name], cached, idx == 0)
            col[layer.name] = AxisGeometry(
                required=required,
                fresh=fresh,
                in_need=input_interval(layer, fresh, axis),
                cache_used=max(0, fresh.lo - required.lo),
                cache_keep=0,
            )
        incol: dict[str, AxisGeometry] = {}
        for name in sources:
            window = col[name].in_need
            fetched = _fresh_part(window, in_frontier[name], cached, idx == 0)
            incol[name] = AxisGeometry(
                required=window,
                fresh=fetched,
                in_need=EMPTY,
                cache_used=max(0, fetched.lo - window.lo),
                cache_keep=0,
            )
        layer_slices.append(col)
        input_slices.append(incol)
        for layer in layers:
            frontier[layer.name] = max(
                col[layer.name].fresh.hi, frontier[layer.name]
            )
        for name in sources:
            in_frontier[name] = max(incol[name].fresh.hi, in_frontier[name])

    if cached:
        _fill_keeps(layer_slices, [l.name for l in layers])
        _fill_keeps(input_slices, list(sources))
    return layer_slices, input_slices


def _fill_keeps(slices: list[dict[str, AxisGeometry]], names: list[str]) -> None:
    """Forward pass: freshly produced elements each tile must retain for
    its successor (clamped to the fresh span — older cached data is
    already retained and needs no new spill)."""
    for idx in range(len(slices) - 1):
        cur, nxt = slices[idx], slices[idx + 1]
        for name in names:
            g = cur[name]
            keep = max(
                0,
                g.fresh.hi - max(nxt[name].required.lo, g.fresh.lo),
            )
            slices[idx][name] = replace(g, cache_keep=keep)


def _elems_to_bytes(elems: int, bits: int) -> int:
    return (elems * bits + 7) // 8


@dataclass(frozen=True)
class LayerTileGeometry:
    """Combined x/y geometry of one layer for one tile.

    ``input_x``/``input_y`` are set for stack source layers and describe
    the stack input feature map's window, fetch and cache state.
    """

    layer: LayerSpec
    x: AxisGeometry
    y: AxisGeometry
    input_x: AxisGeometry | None = None
    input_y: AxisGeometry | None = None

    @property
    def is_computed(self) -> bool:
        """Whether anything must be computed for this layer this tile."""
        return not (self.x.fresh.empty or self.y.fresh.empty)

    @property
    def compute_w(self) -> int:
        return self.x.fresh.width

    @property
    def compute_h(self) -> int:
        return self.y.fresh.width

    @property
    def mac_count(self) -> int:
        """MACs to compute this layer-tile."""
        if not self.is_computed:
            return 0
        per_pixel = self.layer.k * self.layer.c * self.layer.fx * self.layer.fy
        return per_pixel * self.compute_w * self.compute_h

    @property
    def is_source(self) -> bool:
        """Whether this layer reads the stack's input feature map."""
        return self.input_x is not None

    # ------------------------------------------------------------------
    # Data sizes used by steps 3 and 4 (elements and bytes).
    # ------------------------------------------------------------------
    @property
    def output_elems(self) -> int:
        """Newly computed output elements of this layer-tile."""
        return self.layer.k * self.compute_w * self.compute_h

    @property
    def output_bytes(self) -> int:
        return _elems_to_bytes(self.output_elems, self.layer.act_bits)

    @property
    def input_elems(self) -> int:
        """Input elements needed (halo included) for this layer-tile."""
        return (
            self.layer.in_channels * self.x.in_need.width * self.y.in_need.width
        )

    @property
    def input_bytes(self) -> int:
        return _elems_to_bytes(self.input_elems, self.layer.act_bits)

    # -- overlap cache of this layer's output --------------------------
    @property
    def keep_h_elems(self) -> int:
        """Fresh output to spill into the H cache for the next tile."""
        return self.layer.k * self.x.cache_keep * self.compute_h

    @property
    def keep_v_elems(self) -> int:
        """Fresh output to spill into the V cache for the next tile row."""
        return self.layer.k * self.compute_w * self.y.cache_keep

    @property
    def used_h_elems(self) -> int:
        """Output region served by the H cache instead of recomputed."""
        return self.layer.k * self.x.cache_used * self.compute_h

    @property
    def used_v_elems(self) -> int:
        """Output region served by the V cache (full required width)."""
        return self.layer.k * self.x.required.width * self.y.cache_used

    # -- overlap cache of the stack input feature map -------------------
    def _input_cache_elems(self, kind: str) -> int:
        if self.input_x is None or self.input_y is None:
            return 0
        ch = self.layer.in_channels
        if kind == "keep_h":
            return ch * self.input_x.cache_keep * self.input_y.fresh.width
        if kind == "keep_v":
            return ch * self.input_x.fresh.width * self.input_y.cache_keep
        if kind == "used_h":
            return ch * self.input_x.cache_used * self.input_y.fresh.width
        if kind == "used_v":
            return ch * self.input_x.required.width * self.input_y.cache_used
        if kind == "fresh":
            return ch * self.input_x.fresh.width * self.input_y.fresh.width
        raise ValueError(kind)

    @property
    def input_fresh_elems(self) -> int:
        """Stack-input elements fetched fresh from the previous stack's
        output location this tile (0 for non-source layers)."""
        return self._input_cache_elems("fresh") if self.is_source else 0

    @property
    def input_used_h_elems(self) -> int:
        return self._input_cache_elems("used_h")

    @property
    def input_used_v_elems(self) -> int:
        return self._input_cache_elems("used_v")

    @property
    def input_keep_h_elems(self) -> int:
        return self._input_cache_elems("keep_h")

    @property
    def input_keep_v_elems(self) -> int:
        return self._input_cache_elems("keep_v")

    def scaled_layer(self) -> LayerSpec:
        """The per-tile loop nest handed to the single-layer mapper."""
        return self.layer.scaled_to_tile(
            self.compute_w,
            self.compute_h,
            ix=max(1, self.x.in_need.width),
            iy=max(1, self.y.in_need.width),
        )


@dataclass(frozen=True)
class TileType:
    """A class of identical tiles (Fig. 6) with its multiplicity."""

    index: int
    count: int
    col_index: int
    row_index: int
    is_first_tile: bool
    geometry: tuple[LayerTileGeometry, ...]

    @property
    def mac_count(self) -> int:
        return sum(g.mac_count for g in self.geometry)

    @property
    def h_cache_bytes(self) -> int:
        """Per-stack H-cache capacity requirement at this tile (layer
        outputs plus source-layer input windows)."""
        total = 0
        for g in self.geometry:
            total += _elems_to_bytes(g.keep_h_elems, g.layer.act_bits)
            total += _elems_to_bytes(g.input_keep_h_elems, g.layer.act_bits)
        return total

    @property
    def v_cache_line_bytes(self) -> int:
        """Per-stack V-cache requirement: full-width lines per feature map
        (the stack line buffer of Fig. 7)."""
        total = 0
        for g in self.geometry:
            elems = g.layer.k * g.layer.ox * g.y.cache_keep
            total += _elems_to_bytes(elems, g.layer.act_bits)
            if g.input_y is not None:
                elems = g.layer.in_channels * g.layer.ix * g.input_y.cache_keep
                total += _elems_to_bytes(elems, g.layer.act_bits)
        return total


@dataclass(frozen=True)
class StackTiling:
    """All tile types of one stack under one DF strategy."""

    stack: Stack
    mode: OverlapMode
    tile_x: int
    tile_y: int
    grid_cols: int
    grid_rows: int
    tile_types: tuple[TileType, ...]

    @property
    def tile_count(self) -> int:
        return self.grid_cols * self.grid_rows

    @property
    def total_mac_count(self) -> int:
        """MACs over all tiles (recompute overhead included — Fig. 13)."""
        return sum(t.mac_count * t.count for t in self.tile_types)


def backcalculate(
    stack: Stack, mode: OverlapMode, tile_x: int, tile_y: int
) -> StackTiling:
    """Run DeFiNES steps 1-2 for one stack: tile the output, back-calculate
    all per-layer tile geometries, and group identical tiles into types."""
    sink = stack.sink
    tx = min(tile_x, sink.ox)
    ty = min(tile_y, sink.oy)
    x_edges = tile_edges(sink.ox, tx)
    y_edges = tile_edges(sink.oy, ty)

    x_cols, x_incols = _axis_sequence(stack, "x", x_edges, mode.caches_x)
    y_rows, y_inrows = _axis_sequence(stack, "y", y_edges, mode.caches_y)

    x_class_of = _classify(x_cols, x_incols, stack)
    y_class_of = _classify(y_rows, y_inrows, stack)

    # Tile (0, 0) is always its own type: it fetches weights from DRAM
    # (Fig. 9: "all the layers of the first tile take weights from DRAM").
    combos: dict[tuple[int, int, bool], list[tuple[int, int]]] = {}
    for r in range(len(y_edges)):
        for c in range(len(x_edges)):
            key = (x_class_of[c], y_class_of[r], (r == 0 and c == 0))
            combos.setdefault(key, []).append((c, r))

    sources = {l.name for l in stack.workload.sources()}
    tile_types: list[TileType] = []
    for key, members in sorted(
        combos.items(), key=lambda kv: min((r, c) for c, r in kv[1])
    ):
        col_idx, row_idx = members[0]
        geometry = []
        for layer in stack.layers:
            is_src = layer.name in sources
            geometry.append(
                LayerTileGeometry(
                    layer=layer,
                    x=x_cols[col_idx][layer.name],
                    y=y_rows[row_idx][layer.name],
                    input_x=x_incols[col_idx][layer.name] if is_src else None,
                    input_y=y_inrows[row_idx][layer.name] if is_src else None,
                )
            )
        tile_types.append(
            TileType(
                index=len(tile_types),
                count=len(members),
                col_index=col_idx,
                row_index=row_idx,
                is_first_tile=key[2],
                geometry=tuple(geometry),
            )
        )

    return StackTiling(
        stack=stack,
        mode=mode,
        tile_x=tx,
        tile_y=ty,
        grid_cols=len(x_edges),
        grid_rows=len(y_edges),
        tile_types=tuple(tile_types),
    )


def _classify(
    slices: list[dict[str, AxisGeometry]],
    input_slices: list[dict[str, AxisGeometry]],
    stack: Stack,
) -> list[int]:
    """Group identical axis geometries into classes (class id per position)."""

    def signature(g: AxisGeometry) -> tuple[int, ...]:
        return (
            g.required.width,
            g.fresh.width,
            g.in_need.width,
            g.cache_used,
            g.cache_keep,
        )

    seen: dict[tuple, int] = {}
    class_of: list[int] = []
    for idx, col in enumerate(slices):
        sig = tuple(signature(col[l.name]) for l in stack.layers) + tuple(
            signature(g) for _, g in sorted(input_slices[idx].items())
        )
        cls = seen.setdefault(sig, len(seen))
        class_of.append(cls)
    return class_of
