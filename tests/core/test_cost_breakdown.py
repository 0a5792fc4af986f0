"""Golden cost breakdowns: the whole schedule total, not just two scalars.

``tests/fixtures/cost_breakdown.json`` pins, for a handful of schedules,
the full :class:`~repro.mapping.cost.CostResult` total (MAC fields,
latency and every traffic row in insertion order) plus the step-4 data
copy cost of every tile type.  Traffic dicts accumulate in insertion
order and float sums depend on it, so the comparison is ``json.dumps``
equality: a reordered copy bundle or a re-associated sum fails here even
when energy and latency happen to round the same.

The points together cover all three overlap modes, a branchy ResNet-18
stack, source-layer H/V input caching (small tiles) and both stack
boundaries (single-layer and layer-by-layer).  To re-bless after an
*intentional* cost-model change::

    PYTHONPATH=src python -m tests.core.test_cost_breakdown
"""

import json
from pathlib import Path

import pytest

from repro import (
    DepthFirstEngine,
    DFStrategy,
    OverlapMode,
    get_accelerator,
    get_workload,
)
from repro.core.strategy import StackBoundary
from repro.mapping import MappingCache, SearchConfig
from repro.mapping.cache import encode_cost

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "cost_breakdown.json"
CONFIG = SearchConfig(lpf_limit=5, budget=40)

#: id -> (workload, accelerator, strategy)
POINTS = {
    "fsrcnn-meta-fc-4x4": (
        "fsrcnn", "meta_proto_like_df", DFStrategy(4, 4, OverlapMode.FULLY_CACHED)
    ),
    "fsrcnn-meta-hcvr-16x18": (
        "fsrcnn", "meta_proto_like_df",
        DFStrategy(16, 18, OverlapMode.H_CACHED_V_RECOMPUTE),
    ),
    "fsrcnn-meta-fr-60x72": (
        "fsrcnn", "meta_proto_like_df",
        DFStrategy(60, 72, OverlapMode.FULLY_RECOMPUTE),
    ),
    "resnet18-meta-fc-4x4": (
        "resnet18", "meta_proto_like_df", DFStrategy(4, 4, OverlapMode.FULLY_CACHED)
    ),
    "resnet18-depfin-hcvr-16x18": (
        "resnet18", "depfin_like",
        DFStrategy(16, 18, OverlapMode.H_CACHED_V_RECOMPUTE),
    ),
    "resnet18-depfin-lbl": ("resnet18", "depfin_like", DFStrategy.layer_by_layer()),
    "mobilenet_v1-edge-sl": (
        "mobilenet_v1", "edge_tpu_like_df", DFStrategy.single_layer()
    ),
    "mobilenet_v1-edge-lbl": (
        "mobilenet_v1", "edge_tpu_like_df", DFStrategy.layer_by_layer()
    ),
}


def evaluate_all() -> dict:
    """Evaluate every point (one shared mapping cache per accelerator)."""
    caches: dict[str, MappingCache] = {}
    schedules = {}
    for name, (workload, accelerator, strategy) in POINTS.items():
        cache = caches.setdefault(accelerator, MappingCache())
        engine = DepthFirstEngine(get_accelerator(accelerator), CONFIG, cache=cache)
        schedules[name] = engine.evaluate(get_workload(workload), strategy)
    return schedules


def breakdown(schedule) -> dict:
    return {
        "total": encode_cost(schedule.total),
        "copy_costs": [
            [encode_cost(tr.copy_cost) for tr in stack.tile_results]
            for stack in schedule.stacks
        ],
    }


@pytest.fixture(scope="module")
def schedules():
    return evaluate_all()


@pytest.mark.parametrize("name", list(POINTS))
def test_cost_breakdown_is_bit_identical(name, schedules):
    expected = json.loads(FIXTURE.read_text())[name]
    assert json.dumps(breakdown(schedules[name])) == json.dumps(expected), (
        f"{name}: cost breakdown drifted; if intentional, re-bless with "
        "PYTHONPATH=src python -m tests.core.test_cost_breakdown"
    )


def test_points_cover_the_step4_cases(schedules):
    strategies = [strategy for _, _, strategy in POINTS.values()]
    assert {s.mode for s in strategies if not s.one_layer_per_stack} == set(OverlapMode)
    per_layer = [s for s in strategies if s.one_layer_per_stack]
    assert {s.stack_boundary for s in per_layer} == set(StackBoundary)

    branchy = any(
        len(stack.tiling.stack.workload.predecessors(name)) > 1
        for stack in schedules["resnet18-meta-fc-4x4"].stacks
        for name in stack.layer_names
    )
    assert branchy

    def source_cached(which: str) -> bool:
        return any(
            tr.plan.cache_level(get_accelerator(accel), which) is not None
            and getattr(geom, f"input_used_{which}_elems") > 0
            for name, (_, accel, _) in POINTS.items()
            for stack in schedules[name].stacks
            for tr in stack.tile_results
            for geom in tr.tile.geometry
            if geom.is_source and geom.is_computed
        )

    assert source_cached("h") and source_cached("v")


def _regenerate() -> None:  # pragma: no cover - maintenance entry point
    records = {name: breakdown(s) for name, s in evaluate_all().items()}
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n")
    print(f"blessed {FIXTURE}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
