"""Unit tests for top-memory-level determination (step 3)."""


from repro.core.backcalc import backcalculate
from repro.core.memlevels import (
    MemLevelPolicy,
    plan_tile_memory,
    weight_resident_index,
)
from repro.core.stacks import partition_stacks
from repro.core.strategy import OverlapMode
from repro.workloads.builder import WorkloadBuilder


def big_channel_workload(x=64, y=64, k=32):
    """Channels sized so I+O do not fit a 64KB LB together at large tiles."""
    b = WorkloadBuilder("bigch", channels=k, x=x, y=y)
    t = b.input()
    t = b.conv("L1", t, k=k, f=3, pad=1)
    b.conv("L2", t, k=k, f=3, pad=1)
    return b.build()


def plan_for(workload, accel, mode, tx, ty, tile_index=0, policy=None):
    stack = partition_stacks(workload, accel)[0]
    tiling = backcalculate(stack, mode, tx, ty)
    tile = tiling.tile_types[tile_index]
    out_top = accel.top_level_index("O")
    return tile, plan_tile_memory(
        accel, tile, stack.weight_bytes, out_top, policy=policy
    )


class TestWeightResidency:
    def test_small_weights_live_in_lb(self, meta_df):
        idx = weight_resident_index(meta_df, 10 * 1024)
        assert meta_df.hierarchy("W")[idx].name == "LB_W"

    def test_medium_weights_live_in_gb(self, meta_df):
        idx = weight_resident_index(meta_df, 200 * 1024)
        assert meta_df.hierarchy("W")[idx].name == "GB_W"

    def test_huge_weights_fall_to_dram(self, meta_df):
        idx = weight_resident_index(meta_df, 50 << 20)
        assert meta_df.hierarchy("W")[idx].instance.is_dram


class TestFirstTileWeights:
    def test_first_tile_streams_weights_from_dram(self, tiny_workload, meta_df):
        tile, plan = plan_for(
            tiny_workload, meta_df, OverlapMode.FULLY_CACHED, 16, 8, tile_index=0
        )
        assert tile.is_first_tile
        w_hier = meta_df.hierarchy("W")
        for tops in plan.layer_tops:
            assert w_hier[tops.tops["W"]].instance.is_dram

    def test_other_tiles_take_weights_from_resident_level(self, tiny_workload, meta_df):
        tile, plan = plan_for(
            tiny_workload, meta_df, OverlapMode.FULLY_CACHED, 16, 8, tile_index=1
        )
        assert not tile.is_first_tile
        w_hier = meta_df.hierarchy("W")
        for tops in plan.layer_tops:
            assert w_hier[tops.tops["W"]].name == "LB_W"


class TestActivationPriority:
    def test_small_tiles_keep_io_in_lb(self, tiny_workload, meta_df):
        tile, plan = plan_for(
            tiny_workload, meta_df, OverlapMode.FULLY_CACHED, 8, 8, tile_index=1
        )
        i_hier = meta_df.hierarchy("I")
        o_hier = meta_df.hierarchy("O")
        sink = tile.geometry[-1].layer.name
        for geom, tops in zip(tile.geometry, plan.layer_tops):
            assert i_hier[tops.tops["I"]].name == "LB_IO"
            if geom.layer.name != sink:  # the sink's output top is forced
                assert o_hier[tops.tops["O"]].name in ("LB_IO",)

    def test_io_contention_pushes_o_to_gb(self, meta_df):
        """Fig. 10: when I+O exceed the LB but I alone fits, I keeps the
        LB and O is pushed to the GB."""
        wl = big_channel_workload()
        tile, plan = plan_for(wl, meta_df, OverlapMode.FULLY_CACHED, 48, 24)
        tops = plan.layer_tops[0]
        geom = tile.geometry[0]
        assert geom.input_bytes <= 64 * 1024
        assert geom.input_bytes + geom.output_bytes > 64 * 1024
        assert meta_df.hierarchy("I")[tops.tops["I"]].name == "LB_IO"
        assert meta_df.hierarchy("O")[tops.tops["O"]].name == "GB_IO"

    def test_ranks_are_monotone_with_levels(self, tiny_workload, meta_df):
        _tile, plan = plan_for(tiny_workload, meta_df, OverlapMode.FULLY_CACHED, 8, 8)
        for tops in plan.layer_tops:
            assert set(tops.ranks) == {"W", "I", "O"}


class TestCachePlacement:
    def test_cache_levels_assigned_in_cached_mode(self, tiny_workload, meta_df):
        tile, plan = plan_for(
            tiny_workload, meta_df, OverlapMode.FULLY_CACHED, 8, 8, tile_index=1
        )
        assert plan.cache_h_idx is not None or tile.h_cache_bytes == 0
        if plan.cache_h_idx is not None:
            assert plan.cache_level(meta_df, "h") is not None

    def test_no_cache_levels_in_recompute_mode(self, tiny_workload, meta_df):
        _tile, plan = plan_for(
            tiny_workload, meta_df, OverlapMode.FULLY_RECOMPUTE, 8, 8
        )
        assert plan.cache_h_idx is None
        assert plan.cache_v_idx is None


class TestSkipPolicy:
    def test_dram_only_skipping_disallows_lb_tops(self, tiny_workload, meta_df):
        """Fig. 18(b) baseline: activations may only top out at the
        highest on-chip level (GB) or DRAM."""
        policy = MemLevelPolicy(multi_level_skip=False)
        _tile, plan = plan_for(
            tiny_workload, meta_df, OverlapMode.FULLY_CACHED, 8, 8,
            tile_index=1, policy=policy,
        )
        i_hier = meta_df.hierarchy("I")
        for tops in plan.layer_tops:
            assert i_hier[tops.tops["I"]].name in ("GB_IO", "DRAM")

    def test_multi_level_skipping_uses_lb(self, tiny_workload, meta_df):
        _tile, plan = plan_for(
            tiny_workload, meta_df, OverlapMode.FULLY_CACHED, 8, 8, tile_index=1
        )
        i_hier = meta_df.hierarchy("I")
        names = {i_hier[t.tops["I"]].name for t in plan.layer_tops}
        assert "LB_IO" in names
