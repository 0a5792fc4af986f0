"""Bit-identity property suite: batch scorer vs. scalar reference.

``MappingSearchEngine.search`` scores candidates in one batch; its
contract is *exact* equality with the kept scalar scorer on the same
candidate list — same winning mapping, same ``CostResult`` floats, same
evaluated count — so every comparison here goes through the persistent
cache encoding (the byte-compatibility surface) rather than approximate
asserts.
"""

import dataclasses
import itertools
import random

import numpy as np
import pytest

from repro import obs
from repro.hardware.zoo import ACCELERATOR_FACTORIES, get_accelerator
from repro.mapping import batch as batch_mod
from repro.mapping import loma as loma_mod
from repro.mapping.allocation import AllocationError
from repro.mapping.batch import BatchFallback, evaluate_candidates
from repro.mapping.cache import encode_search_result
from repro.mapping.cost import OBJECTIVE_NAMES
from repro.mapping.loma import (
    MappingSearchEngine,
    SearchConfig,
    SearchResult,
    candidate_table,
)
from repro.mapping.loops import CandidateTable, lpf_decompose
from repro.mapping.temporal import temporal_sizes
from repro.workloads.layer import LayerSpec, OpType
from repro.workloads.zoo import get_workload


def search_both(layer, accel, tops=None, objective=None, **config):
    """Run one search problem through ``search()`` and through the
    scalar scorer on the same candidate list; returns the two results.
    Either may be an error message string: the scalar scorer's ``None``
    (no ordering allocates) becomes the message ``search()`` raises."""
    config = SearchConfig(**config)
    if tops is None:
        tops = {op: accel.top_level_index(op) for op in ("W", "I", "O")}
    searcher = MappingSearchEngine(config)
    try:
        batch = searcher.search(layer, accel, tops, objective)
    except AllocationError as exc:
        batch = str(exc)
    loops = lpf_decompose(temporal_sizes(layer, accel), config.lpf_limit)
    candidates = candidate_table(loops, config.budget).orderings()
    goal = objective or config.objective
    scalar = searcher._search_scalar(layer, accel, tops, candidates, goal)
    if scalar is None:
        scalar = (
            f"no feasible mapping for {layer.name} on {accel.name} "
            f"with tops {tops}"
        )
    return batch, scalar


def table_of(orderings) -> CandidateTable:
    """A table holding exactly ``orderings`` (permutations of one
    multiset), for driving the batch scorer directly."""
    loops = tuple(sorted(set(orderings[0])))
    rank = {loop: c for c, loop in enumerate(loops)}
    return CandidateTable(
        loops,
        np.array([[rank[loop] for loop in o] for o in orderings], dtype=np.int64),
    )


def assert_identical(layer, accel, tops=None, objective=None, **config):
    batch, scalar = search_both(layer, accel, tops, objective, **config)
    if isinstance(batch, str) or isinstance(scalar, str):
        assert batch == scalar, f"{layer.name}: error mismatch"
        return batch
    # The cache encoding covers mapping loops, boundaries, every cost
    # field and the traffic table entry-by-entry.
    assert encode_search_result(batch) == encode_search_result(scalar), (
        f"{layer.name} on {accel.name}: encoded result differs"
    )
    assert batch.evaluated == scalar.evaluated
    # Insertion order of the traffic dict is part of byte-compatibility
    # (objective sums and JSON encoding both iterate it).
    assert list(batch.cost.traffic) == list(scalar.cost.traffic)
    return batch


# ----------------------------------------------------------------------
# Zoo sweep
# ----------------------------------------------------------------------
class TestZooParity:
    @pytest.mark.parametrize("accel_name", sorted(ACCELERATOR_FACTORIES))
    def test_accelerator_zoo(self, accel_name):
        accel = get_accelerator(accel_name)
        for workload_name in ("fsrcnn", "resnet18"):
            for layer in get_workload(workload_name).layers()[:2]:
                assert_identical(layer, accel, lpf_limit=5, budget=120)

    def test_workload_zoo(self):
        accel = get_accelerator("meta_proto_like_df")
        for workload_name in ("dmcnn_vd", "mccnn", "mobilenet_v1", "reference"):
            for layer in get_workload(workload_name).layers()[:3]:
                assert_identical(layer, accel, lpf_limit=5, budget=120)

    def test_all_tops_combinations(self):
        """Every hierarchy truncation, including the (many) infeasible
        ones — those must raise the same AllocationError message."""
        accel = get_accelerator("meta_proto_like_df")
        layer = get_workload("fsrcnn").layers()[1]
        ranges = [range(len(accel.hierarchy(op))) for op in ("W", "I", "O")]
        outcomes = [
            assert_identical(
                layer,
                accel,
                tops={"W": tw, "I": ti, "O": to},
                lpf_limit=5,
                budget=60,
            )
            for tw, ti, to in itertools.product(*ranges)
        ]
        # the sweep must exercise both feasible and infeasible problems
        assert any(isinstance(o, str) for o in outcomes)
        assert any(not isinstance(o, str) for o in outcomes)

    @pytest.mark.parametrize("objective", OBJECTIVE_NAMES)
    def test_named_objectives(self, objective):
        accel = get_accelerator("edge_tpu_like")
        layer = get_workload("fsrcnn").layers()[0]
        assert_identical(
            layer, accel, objective=objective, lpf_limit=5, budget=120
        )

    def test_callable_objective(self):
        accel = get_accelerator("meta_proto_like_df")
        layer = get_workload("fsrcnn").layers()[0]
        assert_identical(
            layer,
            accel,
            objective=lambda c: c.latency_cycles + 0.25 * c.energy_pj,
            lpf_limit=5,
            budget=80,
        )


# ----------------------------------------------------------------------
# Randomized layer shapes
# ----------------------------------------------------------------------
def random_layer(rng: random.Random, index: int) -> LayerSpec:
    op_type = rng.choice(
        [OpType.CONV, OpType.CONV, OpType.DEPTHWISE, OpType.POOL, OpType.ADD, OpType.FC]
    )
    fx, fy = rng.choice([1, 2, 3, 5]), rng.choice([1, 3, 7])
    ox, oy = rng.randint(1, 56), rng.randint(1, 56)
    kw = dict(
        name=f"rand{index}",
        op_type=op_type,
        k=rng.choice([1, 3, 8, 24, 64]),
        c=1 if op_type is OpType.DEPTHWISE else rng.choice([1, 5, 16, 48]),
        ox=ox,
        oy=oy,
        fx=fx,
        fy=fy,
        sx=rng.choice([1, 2, 3]),
        sy=rng.choice([1, 2, 5]),
        dx=rng.choice([1, 1, 2]),
        dy=rng.choice([1, 1, 3]),
        px=rng.choice([0, 1]),
        py=rng.choice([0, 2]),
        act_bits=rng.choice([4, 8, 16]),
        w_bits=rng.choice([4, 8]),
        psum_bits=rng.choice([16, 24, 32]),
    )
    if op_type in (OpType.POOL, OpType.ADD):
        kw["c"] = 1
    layer = LayerSpec(**kw)
    if rng.random() < 0.3:  # clipped input windows (tile-border layers)
        kw["ix_clip"] = max(1, layer.ix - rng.randint(1, 3))
        kw["iy_clip"] = max(1, layer.iy - rng.randint(1, 3))
        layer = LayerSpec(**kw)
    return layer


class TestRandomizedParity:
    SEED = 20230423  # fixed: failures must reproduce

    @pytest.mark.parametrize("accel_name", ["meta_proto_like_df", "tpu_like"])
    def test_random_shapes(self, accel_name):
        rng = random.Random(self.SEED)
        accel = get_accelerator(accel_name)
        for index in range(25):
            layer = random_layer(rng, index)
            assert_identical(layer, accel, lpf_limit=5, budget=80)

    def test_random_shapes_with_truncated_tops(self):
        rng = random.Random(self.SEED + 1)
        accel = get_accelerator("meta_proto_like_df")
        for index in range(15):
            layer = random_layer(rng, index)
            tops = {
                op: rng.randrange(len(accel.hierarchy(op)))
                for op in ("W", "I", "O")
            }
            assert_identical(layer, accel, tops=tops, lpf_limit=5, budget=60)


# ----------------------------------------------------------------------
# Search plumbing
# ----------------------------------------------------------------------
HUGE = LayerSpec(name="huge", k=512, c=512, ox=64, oy=64, fx=3, fy=3)
REGISTER_TOPS = {"W": 0, "I": 0, "O": 0}  # nothing fits in the registers


class TestSearchConfig:
    def test_engine_option_is_gone(self):
        with pytest.raises(TypeError):
            SearchConfig(engine="batch")

    def test_fields_are_exactly_the_cache_token(self):
        """Every knob changes results, so every knob is in the token."""
        config = SearchConfig(lpf_limit=5, budget=60, objective="latency")
        assert [f.name for f in dataclasses.fields(SearchConfig)] == [
            "lpf_limit",
            "budget",
            "objective",
        ]
        assert config.cache_token() == (5, 60, "latency")


class TestFeasibility:
    def test_all_infeasible_raises_same_message(self):
        accel = get_accelerator("meta_proto_like_df")
        batch, scalar = search_both(
            HUGE, accel, REGISTER_TOPS, lpf_limit=5, budget=40
        )
        assert isinstance(batch, str) and isinstance(scalar, str)
        assert batch == scalar
        assert "no feasible mapping" in batch

    def test_infeasible_search_generates_no_candidates(self, monkeypatch):
        """Phase 1 decides feasibility once, before any ordering is
        generated or scored; the cache lookup still happens first."""
        def never(*args, **kwargs):
            raise AssertionError("candidate work on an infeasible problem")

        monkeypatch.setattr(loma_mod, "candidate_table", never)
        monkeypatch.setattr(loma_mod, "multiset_permutations", never)
        monkeypatch.setattr(loma_mod, "evaluate_candidates", never)
        accel = get_accelerator("meta_proto_like_df")
        searcher = MappingSearchEngine(SearchConfig(lpf_limit=5, budget=40))
        with pytest.raises(AllocationError) as info:
            searcher.search(HUGE, accel, REGISTER_TOPS)
        assert str(info.value) == (
            f"no feasible mapping for huge on {accel.name} "
            f"with tops {REGISTER_TOPS}"
        )
        assert (searcher.cache.hits, searcher.cache.misses) == (0, 1)
        assert len(searcher.cache) == 0  # failures are not memoized

    def test_evaluate_candidates_requires_a_feasible_problem(self):
        """The batch scorer no longer masks infeasible candidates: phase
        1's error propagates to a caller that skipped the check."""
        accel = get_accelerator("meta_proto_like_df")
        loops = lpf_decompose(temporal_sizes(HUGE, accel), 5)
        with pytest.raises(AllocationError, match="does not fit"):
            evaluate_candidates(HUGE, accel, REGISTER_TOPS, table_of([loops]))

    def test_every_candidate_is_scored(self, monkeypatch):
        """A feasible search scores its whole candidate list once."""
        evaluations = []

        def spy(*args):
            evaluations.append(evaluate_candidates(*args))
            return evaluations[-1]

        monkeypatch.setattr(loma_mod, "evaluate_candidates", spy)
        accel = get_accelerator("meta_proto_like_df")
        layer = get_workload("fsrcnn").layers()[0]
        result = MappingSearchEngine(SearchConfig(lpf_limit=5, budget=60)).search(
            layer, accel
        )
        [evaluation] = evaluations
        assert evaluation.count == result.evaluated
        assert not hasattr(evaluation, "feasible")  # no per-candidate mask


@pytest.fixture
def forced_fallback(monkeypatch):
    """Every batch scoring attempt raises :class:`BatchFallback`."""
    def boom(*args, **kwargs):
        raise BatchFallback("forced")

    monkeypatch.setattr(loma_mod, "evaluate_candidates", boom)
    return monkeypatch


class TestFallback:
    def test_batch_fallback_routes_to_scalar(self, forced_fallback):
        """A BatchFallback inside the vectorized path must silently rerun
        the search on the scalar reference, not surface to the caller."""
        accel = get_accelerator("meta_proto_like_df")
        layer = get_workload("fsrcnn").layers()[0]
        via_fallback = MappingSearchEngine(
            SearchConfig(lpf_limit=5, budget=60)
        ).search(layer, accel)
        forced_fallback.undo()
        batch, scalar = search_both(layer, accel, lpf_limit=5, budget=60)
        assert encode_search_result(via_fallback) == encode_search_result(scalar)
        assert encode_search_result(via_fallback) == encode_search_result(batch)

    def test_fallback_is_counted(self, forced_fallback):
        accel = get_accelerator("meta_proto_like_df")
        layer = get_workload("fsrcnn").layers()[0]
        obs.reset()
        registry = obs.enable()
        try:
            MappingSearchEngine(SearchConfig(lpf_limit=5, budget=60)).search(
                layer, accel
            )
            assert registry.value("loma_batch_fallbacks_total") == 1
            assert registry.value("loma_searches_total") == 1
            names = {m["name"] for m in registry.to_json()["metrics"]}
            assert "loma_engine_dispatch_total" not in names
        finally:
            obs.reset()

    def test_overflow_guard_raises_fallback(self):
        """Loop volumes beyond 2**53 cannot be reproduced exactly in
        float64, so the batch evaluator must refuse them."""
        accel = get_accelerator("meta_proto_like_df")
        layer = LayerSpec(name="t", k=4, c=4, ox=4, oy=4)
        tops = {op: accel.top_level_index(op) for op in ("W", "I", "O")}
        huge = ((("K", 1 << 30), ("C", 1 << 30)),)
        with pytest.raises(BatchFallback):
            evaluate_candidates(layer, accel, tops, table_of(huge))

    def test_scorers_cover_every_named_objective(self):
        """A new named objective in cost.py silently falls back to the
        per-candidate path; keep the fast scorer table in sync."""
        assert set(batch_mod._SCORERS) == set(OBJECTIVE_NAMES)

    def test_evaluate_fixed_matches_batch_scoring(self):
        """evaluate_fixed stays on the scalar reference path, which the
        batch scorer reproduces for the same single ordering."""
        accel = get_accelerator("meta_proto_like_df")
        layer = get_workload("fsrcnn").layers()[0]
        ordering = lpf_decompose(temporal_sizes(layer, accel), 5)
        fixed = MappingSearchEngine().evaluate_fixed(layer, accel, ordering)
        tops = {op: accel.top_level_index(op) for op in ("W", "I", "O")}
        evaluation = evaluate_candidates(layer, accel, tops, table_of([ordering]))
        assert encode_search_result(fixed) == encode_search_result(
            SearchResult(
                mapping=evaluation.mapping(0),
                cost=evaluation.cost_result(0),
                evaluated=1,
            )
        )


def scan_best(scores) -> int:
    """The scalar path's winner rule: first strictly-smaller score."""
    best = 0
    for i in range(1, len(scores)):
        if scores[i] < scores[best]:
            best = i
    return best


class TestBestIndex:
    @pytest.mark.parametrize(
        "scores",
        [
            [3.0, 1.0, 2.0, 1.0, 1.0],           # ties keep the earliest
            [2.0, 2.0, 2.0],                     # all tied
            [0.0, -0.0, 5.0],                    # signed zeros compare equal
            [float("nan"), 1.0, 0.5, 0.5],       # NaN at index 0 never loses
            [4.0, float("nan"), 1.0, 3.0, 1.0],  # NaN mid-array is skipped
            [float("nan"), float("nan")],
            [float("inf"), 7.0, float("-inf"), float("-inf")],
        ],
    )
    def test_matches_first_strictly_smaller_scan(self, scores):
        accel = get_accelerator("meta_proto_like_df")
        layer = get_workload("fsrcnn").layers()[0]
        loops = lpf_decompose(temporal_sizes(layer, accel), 5)
        tops = {op: accel.top_level_index(op) for op in ("W", "I", "O")}
        full = candidate_table(loops, 60)
        table = CandidateTable(full.loops, full.rows[: len(scores)])
        evaluation = evaluate_candidates(layer, accel, tops, table)
        values = np.array(scores, dtype=np.float64)
        evaluation.scores = lambda objective: values
        assert evaluation.best_index("energy") == scan_best(values)
