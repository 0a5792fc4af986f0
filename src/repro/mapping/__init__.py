"""Mapping substrate: single-layer cost model (ZigZag substitute) and
temporal-mapping search engine (LOMA substitute)."""

from .allocation import AllocationError, allocate
from .batch import BatchEvaluation, BatchFallback, evaluate_candidates
from .cache import MappingCache
from .cost import (
    OBJECTIVE_NAMES,
    CostResult,
    Objective,
    Traffic,
    resolve_objective,
    validate_objectives,
)
from .loma import MappingSearchEngine, SearchConfig, SearchResult
from .loops import (
    Loop,
    count_multiset_permutations,
    lpf_decompose,
    multiset_permutations,
    prime_factors,
)
from .temporal import (
    TemporalMapping,
    cumulative_dim_products,
    operand_footprint_elems,
    temporal_sizes,
    utilized_spatial,
)
from .zigzag import evaluate_mapping

__all__ = [
    "AllocationError",
    "allocate",
    "BatchEvaluation",
    "BatchFallback",
    "evaluate_candidates",
    "MappingCache",
    "CostResult",
    "Traffic",
    "Objective",
    "OBJECTIVE_NAMES",
    "resolve_objective",
    "validate_objectives",
    "MappingSearchEngine",
    "SearchConfig",
    "SearchResult",
    "Loop",
    "prime_factors",
    "lpf_decompose",
    "multiset_permutations",
    "count_multiset_permutations",
    "TemporalMapping",
    "temporal_sizes",
    "utilized_spatial",
    "cumulative_dim_products",
    "operand_footprint_elems",
    "evaluate_mapping",
]
