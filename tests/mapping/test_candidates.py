"""Candidate order of one LOMA search: the rank table vs. the tuple list.

The winner of a search is the first strictly-smaller score, so the
candidate *order* is part of the bit-identity contract.  The oracle here
is the tuple-based generator the table replaced: canonical dataflows
first (duplicates among them kept), then lexicographic permutations of
the multiset, skipping any already seen, up to the budget.
"""

import itertools

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.mapping import loma as loma_mod
from repro.mapping.loma import _CANONICAL_DIM_ORDERS, candidate_table
from repro.mapping.loops import multiset_permutations
from repro.workloads.layer import LOOP_DIMS


def legacy_candidates(loops, budget):
    by_dim = {}
    for loop in loops:
        by_dim.setdefault(loop[0], []).append(loop)
    for dim_loops in by_dim.values():
        dim_loops.sort(key=lambda l: l[1])
    candidates = [
        tuple(loop for dim in dim_order for loop in by_dim.get(dim, ()))
        for dim_order in _CANONICAL_DIM_ORDERS
    ]
    seen = set(candidates)
    for ordering in itertools.islice(
        multiset_permutations(loops), max(budget - len(candidates), 0)
    ):
        if ordering not in seen:
            candidates.append(ordering)
            seen.add(ordering)
    return candidates


#: Repeated loops come from the small factor alphabet; dims absent from
#: a draw exercise the canonical orders' missing-dim handling.
loop_multisets = st.lists(
    st.tuples(st.sampled_from(LOOP_DIMS), st.sampled_from([2, 3, 5, 7])),
    min_size=1,
    max_size=7,
)
budgets = st.sampled_from([1, 7, 8, 40, 200, 400])


@settings(max_examples=200, deadline=None)
@given(loops=loop_multisets, budget=budgets)
@example(loops=[], budget=400)
# one dim: all seven canonical orders are equal and all are kept
@example(loops=[("K", 2), ("K", 3)], budget=40)
def test_table_matches_legacy_order(loops, budget):
    table = candidate_table(loops, budget)
    assert table.rows.dtype == np.int64
    assert table.rows.shape == (len(table), len(loops))
    assert table.orderings() == legacy_candidates(loops, budget)
    assert [table.ordering(i) for i in range(len(table))] == table.orderings()


def test_materialized_loops_are_python_values():
    """Cache JSON encodes the winning tuple, so no numpy scalar may leak."""
    table = candidate_table([("C", 3), ("K", 2), ("K", 2)], 40)
    for ordering in table.orderings() + [table.ordering(len(table) - 1)]:
        for dim, factor in ordering:
            assert type(dim) is str and type(factor) is int


def test_same_pattern_shares_one_table():
    """Lex permutations depend only on the multiplicity pattern."""
    first = [("K", 2), ("K", 2), ("C", 3), ("OX", 5)]   # pattern (0, 1, 1, 2)
    second = [("FX", 5), ("FX", 5), ("C", 7), ("OY", 2)]  # same pattern
    loma_mod._lex_rows.cache_clear()
    try:
        candidate_table(first, 40)
        candidate_table(second, 40)
        info = loma_mod._lex_rows.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        cached, _perms = loma_mod._lex_rows((0, 1, 1, 2), 33)
        assert not cached.flags.writeable
    finally:
        loma_mod._lex_rows.cache_clear()
