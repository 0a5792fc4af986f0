"""Temporal mapping representation and operand footprint math.

A temporal mapping is an ordered tuple of loops (innermost first) plus,
per operand, a tuple of *boundaries*: ``boundaries[op][i]`` is the number
of innermost loops whose data lives inside memory level ``i`` of that
operand's (possibly truncated) hierarchy.  The outermost boundary always
covers all loops.

Footprints follow the operand index relations of a convolution:

* ``W``: K x C x FX x FY
* ``O``: K x OX x OY
* ``I``: C x IX x IY with the sliding-window relation
  ``ix = (ox - 1) * sx + (fx - 1) * dx + 1`` — this makes FX/OX interplay
  (halo reuse inside a tile) exact, and ties the input channel to ``K``
  for depthwise/pooling/elementwise layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..hardware.accelerator import Accelerator
from ..workloads.layer import LOOP_DIMS, LayerSpec
from .loops import Loop

#: Canonical dimension order shared by the scalar and batched paths
#: (the trailing array axis of :mod:`repro.mapping.batch` follows it).
DIMS: tuple[str, ...] = LOOP_DIMS

#: Dimension name -> position in :data:`DIMS`.
DIM_INDEX: dict[str, int] = {dim: i for i, dim in enumerate(DIMS)}


def temporal_sizes(layer: LayerSpec, accel: Accelerator) -> dict[str, int]:
    """Per-dimension temporal trip counts after spatial unrolling.

    Each layer dimension is reduced by its spatial unroll with ceiling
    division; the ceiling is what models PE under-utilization for
    non-dividing (or too small) dimensions.
    """
    sizes: dict[str, int] = {}
    for dim, size in layer.loop_sizes.items():
        unroll = accel.spatial_unrolling.get(dim, 1)
        sizes[dim] = math.ceil(size / unroll)
    return sizes


def utilized_spatial(layer: LayerSpec, accel: Accelerator) -> dict[str, int]:
    """Spatially covered index count per dimension (min(unroll, size))."""
    out: dict[str, int] = {}
    for dim, unroll in accel.spatial_unrolling.items():
        out[dim] = min(unroll, layer.loop_sizes[dim])
    return out


def cumulative_dim_products(loops: Sequence[Loop], prefix: int) -> dict[str, int]:
    """Product of loop factors per dimension over ``loops[:prefix]``."""
    products: dict[str, int] = {}
    for dim, factor in loops[:prefix]:
        products[dim] = products.get(dim, 1) * factor
    return products


def operand_footprint(
    layer: LayerSpec,
    operand: str,
    get: Callable[[str], object],
    minimum: Callable = min,
):
    """Array-friendly core of the operand footprint formulas (§2.1).

    ``get(dim)`` returns the *clamped* cumulative product of ``dim`` —
    a plain int on the scalar path, a candidate-axis array on the
    batched path — and ``minimum`` clamps the input span (``min`` for
    ints, ``numpy.minimum`` for arrays).  Keeping the formula here means
    the scalar reference and the vectorized engine cannot drift apart.
    """
    if operand == "W":
        return get("K") * get("C") * get("FX") * get("FY")
    if operand == "O":
        return get("K") * get("OX") * get("OY")
    if operand == "I":
        ix = (get("OX") - 1) * layer.sx + (get("FX") - 1) * layer.dx + 1
        iy = (get("OY") - 1) * layer.sy + (get("FY") - 1) * layer.dy + 1
        ix = minimum(ix, layer.ix)
        iy = minimum(iy, layer.iy)
        channels = get("C")
        if "K" in layer.relevant_dims("I"):
            channels = channels * get("K")
        return channels * ix * iy
    raise ValueError(f"unknown operand {operand!r}")


def operand_footprint_elems(
    layer: LayerSpec,
    operand: str,
    dim_products: Mapping[str, int],
) -> int:
    """Number of distinct operand elements covered by the given cumulative
    dimension products (missing dimensions default to 1).

    Products are clamped to the true layer dimensions: ceil-padded
    temporal trip counts (from spatial unrolling of non-dividing sizes)
    never inflate footprints beyond the real data; likewise the input
    span is clamped to the (possibly border-clipped) window.
    """
    if operand == "W" and layer.weight_count == 0:
        return 0
    sizes = layer.loop_sizes

    def get(dim: str) -> int:
        return min(dim_products.get(dim, 1), sizes[dim])

    return operand_footprint(layer, operand, get)


def merge_products(*maps: Mapping[str, int]) -> dict[str, int]:
    """Multiply several dim-product mappings together."""
    out: dict[str, int] = {}
    for m in maps:
        for dim, value in m.items():
            out[dim] = out.get(dim, 1) * value
    return out


@dataclass(frozen=True)
class TemporalMapping:
    """An ordered loop nest with per-operand memory-level boundaries."""

    loops: tuple[Loop, ...]
    boundaries: Mapping[str, tuple[int, ...]]

    def __post_init__(self) -> None:
        n = len(self.loops)
        for operand, bounds in self.boundaries.items():
            if not bounds:
                raise ValueError(f"{operand}: needs at least one level")
            prev = 0
            for b in bounds:
                if b < prev or b > n:
                    raise ValueError(
                        f"{operand}: boundaries {bounds} not monotone within 0..{n}"
                    )
                prev = b
            if bounds[-1] != n:
                raise ValueError(
                    f"{operand}: top level must cover all loops "
                    f"({bounds[-1]} != {n})"
                )

    @property
    def total_iterations(self) -> int:
        """Product of all temporal loop factors (= compute cycles at full
        issue rate: one spatial wave per iteration)."""
        total = 1
        for _, factor in self.loops:
            total *= factor
        return total

    def loops_above(self, operand: str, levelidx: int) -> tuple[Loop, ...]:
        """Loops iterating above ``levelidx`` for ``operand``."""
        return self.loops[self.boundaries[operand][levelidx] :]

    def stationarity_credit(
        self, layer: LayerSpec, operand: str, levelidx: int
    ) -> int:
        """Reuse factor from operand-irrelevant loops sitting immediately
        above the boundary of ``levelidx``: while only irrelevant loops
        iterate, the level's resident data serves them without refills
        (weight-stationary / output-stationary behaviour)."""
        relevant = layer.relevant_dims(operand)
        credit = 1
        for dim, factor in self.loops_above(operand, levelidx):
            if dim in relevant:
                break
            credit *= factor
        return credit

    def describe(self) -> str:
        """Compact human-readable form, innermost loop first."""
        return " ".join(f"{d}{f}" for d, f in self.loops) or "(scalar)"
