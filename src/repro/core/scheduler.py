"""DeFiNES' depth-first cost model: the six steps of Fig. 5.

:class:`DepthFirstEngine` evaluates a workload on an accelerator under a
:class:`~repro.core.strategy.DFStrategy`:

1. partition the workload into fused-layer stacks (axis 3);
2. tile each stack's output and back-calculate per-layer tile geometry
   for the chosen overlap mode (axes 1-2), grouping identical tiles into
   tile types;
3. determine top memory levels per (operand, layer, tile type);
4. model the data copy actions that collect inputs / spill overlap
   caches: per computed layer, one ordered table of ``(elems, src,
   dst)`` rows costed as one parallel bundle (:func:`copy_cost`);
5. call the single-layer mapper + cost model per layer-tile with the
   hierarchy truncated at the chosen top levels;
6. accumulate everything into stack and schedule results.

Feature maps crossing stack boundaries are placed in the lowest memory
level they fit (layer-by-layer behaviour) or in DRAM (single-layer
behaviour), per the strategy's :class:`StackBoundary`.
"""

from __future__ import annotations

from ..hardware.accelerator import Accelerator
from ..mapping.cache import MappingCache
from ..mapping.cost import CostResult
from ..mapping.loma import MappingSearchEngine, SearchConfig
from ..workloads.graph import WorkloadGraph
from ..workloads.layer import LayerSpec
from .backcalc import TileType, backcalculate
from .datacopy import DataCopyAction, copy_cost
from .memlevels import MemLevelPolicy, TileMemoryPlan, plan_tile_memory
from .results import ScheduleResult, StackResult, TileTypeResult
from .stacks import Stack, partition_stacks
from .strategy import DFStrategy, StackBoundary


class DepthFirstEngine:
    """Evaluates depth-first schedules analytically (Fig. 5)."""

    def __init__(
        self,
        accel: Accelerator,
        search_config: SearchConfig | None = None,
        policy: MemLevelPolicy | None = None,
        cache: MappingCache | None = None,
    ) -> None:
        self.accel = accel
        self.mapper = MappingSearchEngine(search_config, cache=cache)
        self.policy = policy or MemLevelPolicy()

    @property
    def cache(self) -> MappingCache:
        """The mapping cache this engine reads and fills (shareable)."""
        return self.mapper.cache

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(
        self, workload: WorkloadGraph, strategy: DFStrategy
    ) -> ScheduleResult:
        """Evaluate ``workload`` under ``strategy``; returns accumulated
        energy/latency plus the full per-stack, per-tile-type detail."""
        stacks = partition_stacks(
            workload,
            self.accel,
            explicit=None if strategy.one_layer_per_stack else strategy.stacks,
            per_layer=strategy.one_layer_per_stack,
            fuse_depth=strategy.fuse_depth,
        )
        return self._evaluate_stacks(workload, strategy, stacks)

    def evaluate_stack(
        self,
        workload: WorkloadGraph,
        strategy: DFStrategy,
        stack: Stack,
        input_locations: dict[str, int] | None = None,
    ) -> StackResult:
        """Evaluate a single stack (used by the per-stack combination
        search of case study 2).  ``input_locations`` maps external
        producer layer names to I-hierarchy indices (default: computed
        from the boundary policy)."""
        locations = self._boundary_locations(workload, strategy, [stack])
        if input_locations:
            locations.update(input_locations)
        return self._evaluate_one_stack(workload, strategy, stack, locations)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _evaluate_stacks(
        self,
        workload: WorkloadGraph,
        strategy: DFStrategy,
        stacks: list[Stack],
    ) -> ScheduleResult:
        locations = self._boundary_locations(workload, strategy, stacks)
        stack_results = [
            self._evaluate_one_stack(workload, strategy, stack, locations)
            for stack in stacks
        ]
        total = CostResult()
        for sr in stack_results:
            total.add(sr.total)
        return ScheduleResult(
            workload_name=workload.name,
            accelerator_name=self.accel.name,
            strategy_label=strategy.describe(),
            stacks=stack_results,
            total=total,
        )

    def _boundary_locations(
        self,
        workload: WorkloadGraph,
        strategy: DFStrategy,
        stacks: list[Stack],
    ) -> dict[str, int]:
        """I-hierarchy index of every feature map crossing a stack
        boundary, keyed by producing layer name ('' = network input).

        A boundary feature map may stay on-chip only if it fits its level
        together with the input feature maps the producing stack is still
        reading from the same memory (input and output coexist while the
        stack runs, the paper's LBL 'if fit' condition of Fig. 1(b)).
        """
        i_hier = self.accel.hierarchy("I")
        dram_idx = len(i_hier) - 1
        locations: dict[str, int] = {"": dram_idx}
        for stack in stacks:
            sink = stack.sink
            if strategy.stack_boundary is StackBoundary.DRAM:
                locations[sink.name] = dram_idx
                continue
            input_fms: list[tuple[int, float]] = []  # (location idx, bytes)
            for source in stack.workload.sources():
                producers = [
                    p
                    for p in workload.predecessors(source.name)
                    if p.name not in stack.workload
                ]
                in_bytes = float(source.input_bytes)
                if producers:
                    for p in producers:
                        input_fms.append(
                            (locations.get(p.name, dram_idx), float(p.output_bytes))
                        )
                else:
                    input_fms.append((locations[""], in_bytes))
            locations[sink.name] = self._io_location(sink, input_fms)
        return locations

    def _io_location(
        self, sink: LayerSpec, input_fms: list[tuple[int, float]]
    ) -> int:
        """Lowest I-hierarchy level fitting ``sink``'s full output next to
        the concurrently-live input feature maps."""
        i_hier = self.accel.hierarchy("I")
        for idx, level in enumerate(i_hier):
            if level.instance.per_pe:
                continue
            if level.instance.is_dram:
                return idx
            need = float(sink.output_bytes)
            for in_idx, in_bytes in input_fms:
                if (
                    in_idx < len(i_hier)
                    and i_hier[in_idx].instance.uid == level.instance.uid
                ):
                    need += in_bytes
            if need <= level.instance.size_bytes:
                return idx
        return len(i_hier) - 1

    def _o_index_for(self, i_index: int) -> int:
        """Translate an I-hierarchy index into the O hierarchy (they may
        differ in depth when I and O have different private levels)."""
        target = self.accel.hierarchy("I")[i_index].instance.uid
        o_hier = self.accel.hierarchy("O")
        for idx, level in enumerate(o_hier):
            if level.instance.uid == target:
                return idx
        return len(o_hier) - 1

    def _evaluate_one_stack(
        self,
        workload: WorkloadGraph,
        strategy: DFStrategy,
        stack: Stack,
        locations: dict[str, int],
    ) -> StackResult:
        tiling = backcalculate(
            stack, strategy.mode, strategy.tile_x, strategy.tile_y
        )
        out_dest_i = locations[stack.sink.name]
        out_dest_o = self._o_index_for(out_dest_i)

        # Where each stack-source layer's input feature map lives.
        ext_location: dict[str, int] = {}
        for source in stack.workload.sources():
            producers = [
                p
                for p in workload.predecessors(source.name)
                if p.name not in stack.workload
            ]
            if producers:
                ext_location[source.name] = max(
                    locations.get(p.name, self.accel.top_level_index("I"))
                    for p in producers
                )
            else:
                ext_location[source.name] = locations[""]

        # Stack inputs are gathered into the fit-based input top level by
        # data copy actions: in cached modes only the fresh part of the
        # window is fetched from the previous stack's location; in
        # recompute modes the whole window is re-fetched every tile, which
        # is exactly the large first-layer copy traffic of Fig. 14(c).
        tile_results: list[TileTypeResult] = []
        total = CostResult()
        for tile in tiling.tile_types:
            plan = plan_tile_memory(
                self.accel,
                tile,
                stack.weight_bytes,
                output_dest_idx=out_dest_o,
                policy=self.policy,
            )
            result = self._evaluate_tile(stack, tile, plan, ext_location)
            tile_results.append(result)
            total.add(result.cost, scale=tile.count)

        return StackResult(tiling=tiling, tile_results=tile_results, total=total)

    # ------------------------------------------------------------------
    def _evaluate_tile(
        self,
        stack: Stack,
        tile: TileType,
        plan: TileMemoryPlan,
        ext_location: dict[str, int],
    ) -> TileTypeResult:
        i_hier = self.accel.hierarchy("I")
        o_hier = self.accel.hierarchy("O")
        cache_h = plan.cache_level(self.accel, "h")
        cache_v = plan.cache_level(self.accel, "v")
        geom_by_name = {g.layer.name: g for g in tile.geometry}
        top_o_by_name = {
            g.layer.name: o_hier[lt.tops["O"]]
            for g, lt in zip(tile.geometry, plan.layer_tops)
        }

        result = TileTypeResult(tile=tile, plan=plan)
        for geom, layer_tops in zip(tile.geometry, plan.layer_tops):
            if not geom.is_computed:
                result.layer_costs.append(CostResult())
                continue
            name = geom.layer.name
            dest = i_hier[layer_tops.tops["I"]]
            top_o = top_o_by_name[name]
            # Step 4: one parallel bundle of (elems, src, dst) rows -- the
            # input pieces gathered at ``dest``, then the overlap spills.
            # The row order is the traffic insertion order (DESIGN.md §5).
            rows = []
            for producer in stack.workload.predecessors(name):
                p = geom_by_name[producer.name]
                rows += [
                    (p.output_elems, top_o_by_name[producer.name], dest),
                    (p.used_h_elems, cache_h, dest),
                    (p.used_v_elems, cache_v, dest),
                ]
            if geom.is_source:
                rows += [
                    (geom.input_fresh_elems, i_hier[ext_location[name]], dest),
                    (geom.input_used_h_elems, cache_h, dest),
                    (geom.input_used_v_elems, cache_v, dest),
                ]
            rows += [
                (geom.keep_h_elems, top_o, cache_h),
                (geom.keep_v_elems, top_o, cache_v),
            ]
            if geom.is_source:
                rows += [
                    (geom.input_keep_h_elems, dest, cache_h),
                    (geom.input_keep_v_elems, dest, cache_v),
                ]
            bits = geom.layer.act_bits
            result.copy_cost.add(
                copy_cost(
                    [
                        DataCopyAction(elems, bits, src, dst)
                        for elems, src, dst in rows
                        if elems and src is not None and dst is not None
                    ]
                )
            )
            result.layer_costs.append(
                self._search_with_fallback(geom.scaled_layer(), layer_tops.tops)
            )
        return result

    def _search_with_fallback(self, layer: LayerSpec, tops: dict) -> CostResult:
        """Run the mapping search, progressively raising O then I to DRAM
        when the planned tops turn out jointly infeasible (a safety net
        for rare sharing corner cases the planner's per-layer reservation
        model cannot see)."""
        from ..mapping.allocation import AllocationError

        attempts = [dict(tops)]
        o_top = self.accel.top_level_index("O")
        i_top = self.accel.top_level_index("I")
        if tops.get("O") != o_top:
            attempts.append({**tops, "O": o_top})
        if tops.get("I") != i_top:
            attempts.append({**tops, "I": i_top, "O": o_top})
        last_error: Exception | None = None
        for attempt in attempts:
            try:
                return self.mapper.search(layer, self.accel, tops=attempt).cost
            except AllocationError as exc:
                last_error = exc
        raise AllocationError(
            f"{layer.name}: no feasible mapping even with DRAM tops"
        ) from last_error
