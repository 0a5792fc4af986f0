"""Temporal mapping search engine (LOMA [29] substitute).

LOMA enumerates permutations of the layer's loop prime factors (LPFs) and
allocates memory levels per ordering (see :mod:`repro.mapping.allocation`).
This module reimplements that search with two pragmatic additions:

* a *budget* capping the number of evaluated orderings — when the multiset
  has more distinct permutations than the budget, a deterministic sample is
  evaluated instead (the artifact's ``loma_lpf_limit`` speed/quality knob
  plays the same role in the original);
* a set of canonical dataflow orderings (weight-, output-, input-
  stationary flavors) always evaluated in addition, so a tight budget can
  never miss the classic dataflows entirely.

Each search builds its candidate list as an integer table
(:func:`candidate_table`) and scores it in one batch
(:mod:`repro.mapping.batch`); the scalar loop, one ordering at a
time, is the bit-identical reference and the automatic fallback when the
batch cannot guarantee exact floats.  Results are memoized: DeFiNES
evaluates identical layer-tile shapes many times across tile types and
sweep points.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Mapping

import numpy as np

from .. import obs
from ..hardware.accelerator import Accelerator
from ..workloads.layer import LayerSpec
from .allocation import AllocationError, allocate, reserve_top_levels
from .batch import BatchFallback, evaluate_candidates
from .cost import CostResult, Objective, resolve_objective
from .loops import CandidateTable, Loop, lpf_decompose, multiset_permutations
from .temporal import TemporalMapping, temporal_sizes, utilized_spatial
from .zigzag import evaluate_mapping

if TYPE_CHECKING:  # imported lazily at runtime (cache.py imports this module)
    from .cache import MappingCache


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the mapping search.

    ``lpf_limit`` matches the paper artifact's ``loma_lpf_limit``
    (8 for paper-quality results, 6 for the fast mode); ``budget`` caps
    evaluated orderings per layer-tile.  Every field changes results, so
    :meth:`cache_token` holds all of them.
    """

    lpf_limit: int = 6
    budget: int = 400
    objective: str = "energy"

    def cache_token(self) -> Hashable:
        return (self.lpf_limit, self.budget, self.objective)


@dataclass
class SearchResult:
    """Best mapping found and its cost."""

    mapping: TemporalMapping
    cost: CostResult
    evaluated: int = 0


#: Canonical dim orders, innermost first (reduction-inner, output-
#: stationary, weight-stationary, input-stationary flavors).
_CANONICAL_DIM_ORDERS = (
    ("FX", "FY", "C", "K", "OX", "OY"),
    ("FX", "FY", "C", "OX", "OY", "K"),
    ("C", "FX", "FY", "K", "OX", "OY"),
    ("K", "OX", "OY", "FX", "FY", "C"),
    ("OX", "OY", "K", "C", "FX", "FY"),
    ("K", "C", "FX", "FY", "OX", "OY"),
    ("OX", "FX", "OY", "FY", "C", "K"),
)


@functools.lru_cache(maxsize=128)
def _lex_rows(
    pattern: tuple[int, ...], limit: int
) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """The first ``limit`` lexicographic permutations of the sorted
    class-id multiset ``pattern``: a read-only ``(m, n)`` table and the
    same rows as (sorted) tuples.

    Permutations of a sorted multiset depend only on its multiplicity
    pattern (e.g. ``(0, 0, 1, 2, 3, 3)``), not on the loops themselves,
    so every search with the same pattern and budget shares one table.
    """
    perms = tuple(itertools.islice(multiset_permutations(list(pattern)), limit))
    table = np.array(perms, dtype=np.int64).reshape(len(perms), len(pattern))
    table.flags.writeable = False
    return table, perms


def candidate_table(loops: list[Loop], budget: int) -> CandidateTable:
    """The orderings one search scores: the canonical dataflows, then
    lexicographic permutations of ``loops`` up to ``budget`` orderings
    in total, without duplicates (order matters: ties keep the earliest
    candidate).  Canonical orderings keep duplicates among themselves;
    a permutation equal to a canonical one is dropped."""
    ordered = sorted(loops)
    classes = tuple(dict.fromkeys(ordered))
    rank = {loop: c for c, loop in enumerate(classes)}
    pattern = tuple(rank[loop] for loop in ordered)
    by_dim: dict[str, list[int]] = {}
    for loop, c in zip(ordered, pattern):
        by_dim.setdefault(loop[0], []).append(c)
    canonical = [
        tuple(c for dim in dim_order for c in by_dim.get(dim, ()))
        for dim_order in _CANONICAL_DIM_ORDERS
    ]
    lex, perms = _lex_rows(pattern, max(budget - len(canonical), 0))
    # The permutations are sorted, so a canonical row's copy (if it is
    # among them) sits at its bisection point.
    repeats = []
    for row in canonical:
        at = bisect.bisect_left(perms, row)
        if at < len(perms) and perms[at] == row:
            repeats.append(at)
    head = np.array(canonical, dtype=np.int64).reshape(len(canonical), len(pattern))
    return CandidateTable(
        loops=classes, rows=np.concatenate([head, np.delete(lex, repeats, axis=0)])
    )


class MappingSearchEngine:
    """Memoized LOMA-style mapping search.

    The memo store is a :class:`~repro.mapping.cache.MappingCache`; pass
    one to share results between engines (or across runs, when the cache
    is disk-backed).  By default each engine gets a private in-memory
    cache, matching the original behaviour.
    """

    def __init__(
        self,
        config: SearchConfig | None = None,
        cache: "MappingCache | None" = None,
    ) -> None:
        self.config = config or SearchConfig()
        if cache is None:
            from .cache import MappingCache

            cache = MappingCache()
        self.cache = cache

    # ------------------------------------------------------------------
    def _layer_key(self, layer: LayerSpec) -> Hashable:
        return (
            layer.op_type.value,
            layer.k,
            layer.c,
            layer.ox,
            layer.oy,
            layer.fx,
            layer.fy,
            layer.sx,
            layer.sy,
            layer.dx,
            layer.dy,
            layer.act_bits,
            layer.w_bits,
            layer.psum_bits,
            layer.ix_clip,
            layer.iy_clip,
        )

    def cache_key(
        self, layer: LayerSpec, accel: Accelerator, tops: Mapping[str, int]
    ) -> Hashable:
        """Process- and run-stable identity of one search problem.

        The accelerator contributes a structural fingerprint (not its
        object id), so caches can be shared between worker processes and
        persisted across runs while still distinguishing same-named
        architectures that differ structurally.
        """
        return (
            self._layer_key(layer),
            accel.fingerprint(),
            tuple(sorted(tops.items())),
            self.config.cache_token(),
        )

    @property
    def cache_size(self) -> int:
        return len(self.cache)

    def clear_cache(self) -> None:
        self.cache.clear()

    # ------------------------------------------------------------------
    def search(
        self,
        layer: LayerSpec,
        accel: Accelerator,
        tops: Mapping[str, int] | None = None,
        objective: str | Objective | None = None,
    ) -> SearchResult:
        """Find the best temporal mapping for one layer(-tile).

        ``tops`` truncates the per-operand hierarchies (DeFiNES step 3);
        ``None`` means every operand tops out at DRAM (plain single-layer
        operation).  Raises :class:`AllocationError` when the operands'
        full footprints do not fit the truncated hierarchy.  That depends
        only on the loop multiset, not the ordering, so it is decided
        once, before any candidate is generated.
        """
        if tops is None:
            tops = {op: accel.top_level_index(op) for op in ("W", "I", "O")}
        cacheable = objective is None
        key = self.cache_key(layer, accel, tops) if cacheable else None
        if key is not None:
            hit = self.cache.get(key)
            if hit is not None:
                return hit
        if obs.enabled:
            # Telemetry only — counters never feed back into the search.
            obs.metrics().counter("loma_searches_total").inc()

        goal = objective or self.config.objective
        loops = lpf_decompose(temporal_sizes(layer, accel), self.config.lpf_limit)
        try:
            reserve_top_levels(
                layer, accel, tops, loops, utilized_spatial(layer, accel)
            )
        except AllocationError:
            raise AllocationError(
                f"no feasible mapping for {layer.name} on {accel.name} "
                f"with tops {dict(tops)}"
            ) from None

        table = candidate_table(loops, self.config.budget)
        try:
            best = self._search_batch(layer, accel, tops, table, goal)
            fell_back = False
        except BatchFallback:
            best = self._search_scalar(
                layer, accel, tops, table.orderings(), goal
            )
            fell_back = True
        assert best is not None  # phase 1 passed: every ordering allocates
        if obs.enabled:
            registry = obs.metrics()
            if fell_back:
                registry.counter("loma_batch_fallbacks_total").inc()
            registry.counter("loma_orderings_evaluated_total").inc(best.evaluated)
        if key is not None:
            self.cache.put(key, best)
        return best

    def _search_batch(
        self,
        layer: LayerSpec,
        accel: Accelerator,
        tops: Mapping[str, int],
        table: CandidateTable,
        objective: str | Objective,
    ) -> SearchResult:
        """Vectorized candidate scoring (see :mod:`repro.mapping.batch`)."""
        evaluation = evaluate_candidates(layer, accel, tops, table)
        winner = evaluation.best_index(objective)
        return SearchResult(
            mapping=evaluation.mapping(winner),
            cost=evaluation.cost_result(winner),
            evaluated=evaluation.count,
        )

    def _search_scalar(
        self,
        layer: LayerSpec,
        accel: Accelerator,
        tops: Mapping[str, int],
        candidates: list[tuple[Loop, ...]],
        objective: str | Objective,
    ) -> SearchResult | None:
        """Reference one-ordering-at-a-time scoring loop; ``None`` when no
        ordering allocates.  The automatic fallback of :meth:`search`
        and the oracle the batch scorer is checked against."""
        score = resolve_objective(objective)
        best: SearchResult | None = None
        evaluated = 0
        for ordering in candidates:
            try:
                mapping = allocate(layer, accel, tops, ordering)
            except AllocationError:
                continue
            cost = evaluate_mapping(layer, accel, tops, mapping)
            evaluated += 1
            if best is None or score(cost) < score(best.cost):
                best = SearchResult(mapping=mapping, cost=cost)
        if best is not None:
            best.evaluated = evaluated
        return best

    def evaluate_fixed(
        self,
        layer: LayerSpec,
        accel: Accelerator,
        ordering: list[Loop],
        tops: Mapping[str, int] | None = None,
    ) -> SearchResult:
        """Evaluate a user-fixed loop ordering (used by the DepFiN
        validation, where the paper fixes the temporal mapping to match
        the chip)."""
        if tops is None:
            tops = {op: accel.top_level_index(op) for op in ("W", "I", "O")}
        mapping = allocate(layer, accel, tops, ordering)
        cost = evaluate_mapping(layer, accel, tops, mapping)
        return SearchResult(mapping=mapping, cost=cost, evaluated=1)
