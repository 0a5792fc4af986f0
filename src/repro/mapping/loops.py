"""Loop prime factor (LPF) machinery.

LOMA [29] generates temporal mappings by decomposing each temporal loop
dimension into its prime factors and permuting the resulting multiset.
The ``lpf_limit`` knob of the paper's artifact (speed/quality trade-off)
caps the multiset size by merging the smallest factors of the most
fragmented dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, TypeVar

import numpy as np

#: A single loop: (dimension name, trip count).
Loop = tuple[str, int]

_T = TypeVar("_T")


def prime_factors(n: int) -> list[int]:
    """Prime factorization of ``n`` in ascending order (``n >= 1``)."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    factors: list[int] = []
    remaining = n
    divisor = 2
    while divisor * divisor <= remaining:
        while remaining % divisor == 0:
            factors.append(divisor)
            remaining //= divisor
        divisor += 1 if divisor == 2 else 2
    if remaining > 1:
        factors.append(remaining)
    return factors


def lpf_decompose(sizes: Mapping[str, int], lpf_limit: int = 6) -> list[Loop]:
    """Decompose loop sizes into a capped multiset of loop prime factors.

    Dimensions of size 1 are dropped.  While the total LPF count exceeds
    ``lpf_limit``, the two smallest factors of the dimension with the most
    factors are merged (multiplied), which mirrors LOMA's knob: a smaller
    limit means coarser tiling granularity and a faster search.
    """
    if lpf_limit < 1:
        raise ValueError("lpf_limit must be >= 1")
    per_dim: dict[str, list[int]] = {
        dim: prime_factors(size) for dim, size in sizes.items() if size > 1
    }
    while sum(len(f) for f in per_dim.values()) > lpf_limit:
        # Merge within the most fragmented dimension; ties broken by the
        # smallest resulting product to keep factors balanced.
        dim = max(
            (d for d in per_dim if len(per_dim[d]) >= 2),
            key=lambda d: (len(per_dim[d]), -per_dim[d][0] * per_dim[d][1]),
            default=None,
        )
        if dim is None:
            break
        factors = sorted(per_dim[dim])
        merged = factors[0] * factors[1]
        per_dim[dim] = sorted(factors[2:] + [merged])
    loops: list[Loop] = []
    for dim in sorted(per_dim):
        loops.extend((dim, f) for f in sorted(per_dim[dim]))
    return loops


def multiset_permutations(items: list[_T]) -> Iterator[tuple[_T, ...]]:
    """Yield all distinct permutations of a multiset (of loops, or of
    their class ids), in lexicographic order.

    Standard lexicographic next-permutation algorithm over the multiset,
    so duplicates are never generated (unlike ``itertools.permutations``).
    """
    current = sorted(items)
    n = len(current)
    if n == 0:
        yield ()
        return
    while True:
        yield tuple(current)
        # Find rightmost ascent.
        i = n - 2
        while i >= 0 and current[i] >= current[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while current[j] <= current[i]:
            j -= 1
        current[i], current[j] = current[j], current[i]
        current[i + 1 :] = reversed(current[i + 1 :])


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """Loop orderings of one multiset as an integer table.

    ``loops`` holds the distinct loops of the multiset in sorted order;
    a loop's *class id* is its index there.  Row ``i`` of the ``(m, n)``
    int64 array ``rows`` is ordering ``i``, innermost loop first, as
    class ids.
    """

    loops: tuple[Loop, ...]
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def ordering(self, index: int) -> tuple[Loop, ...]:
        """Row ``index`` as a loop tuple (the loops' own str/int values)."""
        return tuple(self.loops[c] for c in self.rows[index].tolist())

    def orderings(self) -> list[tuple[Loop, ...]]:
        """Every row as a loop tuple, in table order."""
        loops = self.loops
        return [tuple(loops[c] for c in row) for row in self.rows.tolist()]


def count_multiset_permutations(items: Iterable[Loop]) -> int:
    """Number of distinct permutations of the loop multiset."""
    from math import factorial

    items = list(items)
    counts: dict[Loop, int] = {}
    for it in items:
        counts[it] = counts.get(it, 0) + 1
    total = factorial(len(items))
    for c in counts.values():
        total //= factorial(c)
    return total


def product(values: Iterable[int]) -> int:
    """Integer product with empty-product = 1."""
    out = 1
    for v in values:
        out *= v
    return out
