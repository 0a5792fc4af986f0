"""Step 3 of DeFiNES: determine the top memory level per data type.

For every (tile, layer) combination the data types are prioritized as in
Fig. 5(3) — weights, current layer inputs, current layer outputs, cached
data for H reuse, cached data for V reuse — and each is assigned the
lowest memory level of its operand's hierarchy in which it fits next to
the already-placed higher-priority data.  This reproduces the paper's
Fig. 9/10 behaviour: when I+O no longer fit the LB together, I keeps the
LB and O is pushed to the GB.

The module also implements the "DRAM-only skipping" ablation of
Fig. 18(b): when multi-level skipping is disabled, activations may only
use the highest on-chip level or DRAM as their top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..hardware.accelerator import Accelerator
from ..hardware.memory import MemoryLevel
from .backcalc import TileType


@dataclass(frozen=True)
class MemLevelPolicy:
    """Knobs of the top-level determination."""

    #: Allow skipping multiple upper levels (False = Fig. 18(b) baseline:
    #: activations top out at the highest on-chip level or DRAM only).
    multi_level_skip: bool = True


@dataclass(frozen=True)
class LayerTops:
    """Per-operand top level indices (into the operand hierarchies) for
    one layer of one tile, plus the global ranks used for reporting."""

    tops: Mapping[str, int]
    ranks: Mapping[str, int]


@dataclass(frozen=True)
class TileMemoryPlan:
    """Step-3 output for one tile type."""

    w_resident_idx: int
    layer_tops: tuple[LayerTops, ...]
    cache_h_idx: int | None
    cache_v_idx: int | None

    def cache_level(self, accel: Accelerator, which: str) -> MemoryLevel | None:
        idx = self.cache_h_idx if which == "h" else self.cache_v_idx
        if idx is None:
            return None
        return accel.hierarchy("I")[idx]


def _fits(level: MemoryLevel, need: float, reserved: Mapping[int, float]) -> bool:
    if level.instance.is_dram:
        return True
    available = level.instance.size_bytes - reserved.get(level.instance.uid, 0.0)
    return need <= available


def _lowest_fit(
    accel: Accelerator,
    operand: str,
    need: float,
    reserved: Mapping[int, float],
    policy: MemLevelPolicy,
    minimum: int = 0,
) -> int:
    """Lowest hierarchy index of ``operand`` whose level fits ``need``."""
    hierarchy = accel.hierarchy(operand)
    candidates = range(minimum, len(hierarchy))
    if not policy.multi_level_skip:
        # Only the highest on-chip level or DRAM may serve as a top.
        on_chip = [
            i for i in candidates if not hierarchy[i].instance.is_dram
        ]
        allowed = ([on_chip[-1]] if on_chip else []) + [len(hierarchy) - 1]
        candidates = [i for i in allowed if i >= minimum]
    for idx in candidates:
        level = hierarchy[idx]
        if level.instance.per_pe:
            continue
        if _fits(level, need, reserved):
            return idx
    return len(hierarchy) - 1


def weight_resident_index(accel: Accelerator, stack_weight_bytes: int) -> int:
    """Lowest non-register W level holding the stack's resident weights."""
    reserved: dict[int, float] = {}
    policy = MemLevelPolicy()
    return _lowest_fit(accel, "W", float(stack_weight_bytes), reserved, policy)


def plan_tile_memory(
    accel: Accelerator,
    tile: TileType,
    stack_weight_bytes: int,
    output_dest_idx: int,
    policy: MemLevelPolicy | None = None,
) -> TileMemoryPlan:
    """Run step 3 for one tile type.

    Every layer's input top is the lowest I level that fits its input
    tile, stack-source layers included: the stack's input feature map is
    brought there by step 4's fresh-stack-input copy from wherever the
    previous stack left it.  Only the stack sink's output top is forced,
    to ``output_dest_idx`` (O hierarchy index), where the stack's final
    output must land.
    """
    policy = policy or MemLevelPolicy()
    stack = tile.geometry
    w_resident_idx = weight_resident_index(accel, stack_weight_bytes)
    w_hierarchy = accel.hierarchy("W")
    w_resident = w_hierarchy[w_resident_idx]

    sink_name = stack[-1].layer.name
    layer_tops: list[LayerTops] = []
    io_peak: dict[int, float] = {}  # instance uid -> max I+O bytes seen

    for geom in stack:
        layer = geom.layer
        reserved: dict[int, float] = {}
        if not w_resident.instance.is_dram:
            reserved[w_resident.instance.uid] = float(stack_weight_bytes)

        # Weights: the first tile streams them from DRAM (Fig. 9).
        if layer.weight_count == 0:
            top_w = 0
        elif tile.is_first_tile:
            top_w = len(w_hierarchy) - 1
        else:
            top_w = w_resident_idx

        # Inputs: the lowest level fitting the input tile.
        top_i = _lowest_fit(accel, "I", float(geom.input_bytes), reserved, policy)
        i_level = accel.hierarchy("I")[top_i]
        if not i_level.instance.is_dram:
            reserved[i_level.instance.uid] = (
                reserved.get(i_level.instance.uid, 0.0) + geom.input_bytes
            )

        # Outputs: forced for the stack sink.
        if layer.name == sink_name:
            top_o = output_dest_idx
        else:
            top_o = _lowest_fit(
                accel, "O", float(geom.output_bytes), reserved, policy
            )
        o_level = accel.hierarchy("O")[top_o]
        if not o_level.instance.is_dram:
            reserved[o_level.instance.uid] = (
                reserved.get(o_level.instance.uid, 0.0) + geom.output_bytes
            )

        for uid, amount in reserved.items():
            if not w_resident.instance.is_dram and uid == w_resident.instance.uid:
                amount -= stack_weight_bytes
            io_peak[uid] = max(io_peak.get(uid, 0.0), amount)

        ranks = {
            "W": accel.level_rank(w_hierarchy[top_w]),
            "I": accel.level_rank(accel.hierarchy("I")[top_i]),
            "O": accel.level_rank(accel.hierarchy("O")[top_o]),
        }
        layer_tops.append(
            LayerTops(tops={"W": top_w, "I": top_i, "O": top_o}, ranks=ranks)
        )

    # Cached data: lowest priority, sees the peak I/O pressure plus the
    # resident weights.
    cache_reserved = dict(io_peak)
    if not w_resident.instance.is_dram:
        cache_reserved[w_resident.instance.uid] = (
            cache_reserved.get(w_resident.instance.uid, 0.0) + stack_weight_bytes
        )

    cache_h_idx: int | None = None
    cache_v_idx: int | None = None
    h_bytes = float(tile.h_cache_bytes)
    v_bytes = float(tile.v_cache_line_bytes)
    if h_bytes > 0:
        cache_h_idx = _lowest_fit(accel, "I", h_bytes, cache_reserved, policy)
        level = accel.hierarchy("I")[cache_h_idx]
        if not level.instance.is_dram:
            cache_reserved[level.instance.uid] = (
                cache_reserved.get(level.instance.uid, 0.0) + h_bytes
            )
    if v_bytes > 0:
        cache_v_idx = _lowest_fit(accel, "I", v_bytes, cache_reserved, policy)

    return TileMemoryPlan(
        w_resident_idx=w_resident_idx,
        layer_tops=tuple(layer_tops),
        cache_h_idx=cache_h_idx,
        cache_v_idx=cache_v_idx,
    )
