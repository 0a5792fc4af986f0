"""Vectorized batch evaluation of LOMA candidate orderings.

The scalar reference path (:func:`~repro.mapping.allocation.allocate` +
:func:`~repro.mapping.zigzag.evaluate_mapping`) scores one ordering at a
time; every DSE generation, sweep point and pool job bottoms out in
that loop.  This module scores the *full candidate list* of one
``(layer, accelerator, tops)`` search problem in one set of numpy array
operations; it is the only production scorer of
:meth:`~repro.mapping.loma.MappingSearchEngine.search`.  See DESIGN.md
§2.2 for the axis-by-axis mapping to the §2.1 cost formulas; the layout
in brief:

* axis 0 — the candidate (ordering) index, leading axis of every array;
* axis 1 — the loop-prefix position ``p`` (0..n): cumulative dimension
  products ``P[c, p, d]``, prefix factor products ``PF[c, p]`` and the
  per-prefix resident footprints are all indexed by it;
* axis 2 — the loop dimension, in :data:`~repro.mapping.temporal.DIMS`
  order.

The greedy boundary placement of ``allocate`` (walk outwards until the
level's capacity is exhausted) becomes a prefix scan: a boundary is the
length of the leading all-true run of ``resident[p] <= available``,
computed with a boolean cumulative product.  Stationarity credits use
the same scan over operand-irrelevant loop runs.  Whether the multiset
fits the truncated hierarchy at all does not depend on the ordering, so
the caller decides it once (phase 1) before scoring: every candidate
here is feasible.

**Bit-identity contract.**  Every float the scalar path produces is
reproduced exactly: array expressions mirror the scalar expressions
operation-for-operation (same association, same accumulation order), and
integer quantities stay exact because the search falls back to the
scalar reference (:class:`BatchFallback`) whenever a count could cross
2**53, where float64 rounding could diverge from Python's arbitrary-
precision ints.  The property suite in ``tests/mapping/test_batch.py``
asserts equality on every :class:`~repro.mapping.cost.CostResult` field,
so caches, checkpoints and golden fixtures stay byte-compatible.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from ..hardware.accelerator import Accelerator
from ..workloads.layer import LayerSpec
from .allocation import PRIORITY, active_operands, reserve_top_levels
from .cost import CostResult, TrafficKey, resolve_objective
from .loops import CandidateTable
from .temporal import (
    DIM_INDEX,
    DIMS,
    TemporalMapping,
    cumulative_dim_products,
    merge_products,
    operand_footprint,
    operand_footprint_elems,
    utilized_spatial,
)
from .zigzag import spatial_relevant

#: Largest integer exactly representable as a float64; counts at or
#: beyond it could round differently than Python ints, so the batch
#: scorer refuses (falls back to scalar) rather than risk divergence.
_EXACT = float(1 << 53)


class BatchFallback(Exception):
    """The vectorized path cannot guarantee bit-identical floats for this
    problem (a count could cross 2**53); callers run the scalar
    reference scorer instead — correctness is never at stake."""


class BatchEvaluation:
    """All candidate orderings of one search problem, scored as arrays.

    Every per-candidate quantity has the candidate index as its leading
    axis: :attr:`latency` is ``(C,)``, each :attr:`traffic` value is a
    ``(reads, writes, energy)`` triple of ``(C,)`` arrays keyed exactly
    like the scalar :class:`~repro.mapping.cost.CostResult` (and in the
    same insertion order, so summed objectives accumulate identically).
    """

    def __init__(
        self,
        layer: LayerSpec,
        accel: Accelerator,
        tops: Mapping[str, int],
        table: CandidateTable,
        boundaries: Mapping[str, object],
        latency,
        traffic: Mapping[TrafficKey, tuple],
        mac_count: int,
        mac_energy_pj: float,
        compute_cycles: int,
    ) -> None:
        self.layer = layer
        self.accel = accel
        self.tops = dict(tops)
        self.table = table
        self.boundaries = boundaries
        self.latency = latency
        self.traffic = traffic
        self.mac_count = mac_count
        self.mac_energy_pj = mac_energy_pj
        self.compute_cycles = compute_cycles

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of candidate orderings, all of them scored."""
        return len(self.table)

    # ------------------------------------------------------------------
    def mapping(self, index: int) -> TemporalMapping:
        """Materialize candidate ``index``'s allocated temporal mapping."""
        bounds = {
            op: tuple(int(b) for b in rows[index])
            for op, rows in self.boundaries.items()
        }
        return TemporalMapping(loops=self.table.ordering(index), boundaries=bounds)

    def cost_result(self, index: int) -> CostResult:
        """Materialize candidate ``index``'s cost (scalar-path identical)."""
        return CostResult.from_arrays(
            index,
            self.mac_count,
            self.mac_energy_pj,
            self.compute_cycles,
            self.latency,
            self.traffic,
        )

    # ------------------------------------------------------------------
    def scores(self, objective) -> "np.ndarray":
        """Per-candidate objective values, ``(C,)`` float64.

        Named objectives are computed directly from the arrays with the
        exact accumulation order of the scalar ``CostResult`` formulas;
        callables fall back to materializing each candidate's cost.
        """
        if isinstance(objective, str) and objective in _SCORERS:
            raw = _SCORERS[objective](self)
        else:
            fn = resolve_objective(objective)
            raw = np.array(
                [fn(self.cost_result(i)) for i in range(self.count)],
                dtype=np.float64,
            )
        arr = np.asarray(raw, dtype=np.float64)
        if arr.ndim == 0:  # e.g. zero DRAM traffic under truncated tops
            arr = np.full(self.count, float(arr))
        return arr

    def best_index(self, objective) -> int:
        """Index of the winning candidate.

        Replicates the scalar scan exactly: first strictly-smaller score
        wins, so ties keep the earliest candidate.  Without NaNs that is
        ``argmin`` (the first minimum); a NaN never wins the scan, so
        that case keeps the scan itself.
        """
        s = self.scores(objective)
        if not np.isnan(s).any():
            return int(np.argmin(s))
        best = 0
        for i in range(1, self.count):
            if s[i] < s[best]:
                best = i
        return best


# ----------------------------------------------------------------------
# Named-objective scorers (array mirrors of the CostResult formulas).
# Each sum starts at 0.0 and adds entries in traffic-insertion order —
# the same float accumulation sequence as the scalar properties.
# ----------------------------------------------------------------------
def _memory_energy(ev: BatchEvaluation):
    total = 0.0
    for _reads, _writes, energy in ev.traffic.values():
        total = total + energy
    return total


def _energy(ev: BatchEvaluation):
    return ev.mac_energy_pj + _memory_energy(ev)


def _accesses(ev, categories=None, level_names=None):
    total = 0.0
    for (category, name), (reads, writes, _energy) in ev.traffic.items():
        if categories is not None and category not in categories:
            continue
        if level_names is not None and name not in level_names:
            continue
        total = total + (reads + writes)
    return total


def _energy_of(ev, categories=None, level_names=None):
    total = 0.0
    for (category, name), (_reads, _writes, energy) in ev.traffic.items():
        if categories is not None and category not in categories:
            continue
        if level_names is not None and name not in level_names:
            continue
        total = total + energy
    return total


_SCORERS: dict[str, Callable[[BatchEvaluation], object]] = {
    "energy": _energy,
    "latency": lambda ev: ev.latency,
    "edp": lambda ev: _energy(ev) * ev.latency,
    "dram_accesses": lambda ev: _accesses(ev, level_names=("DRAM",)),
    "offchip_traffic": lambda ev: _accesses(ev, level_names=("DRAM",)),
    "onchip_traffic": lambda ev: (
        _accesses(ev) - _accesses(ev, level_names=("DRAM",))
    ),
    "activation_energy": lambda ev: _energy_of(ev, categories=("I", "O", "copy")),
}


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------
def evaluate_candidates(
    layer: LayerSpec,
    accel: Accelerator,
    tops: Mapping[str, int],
    table: CandidateTable,
) -> BatchEvaluation:
    """Allocate and score every row of ``table`` in array operations.

    All rows permute one loop multiset (the table's construction
    guarantees this), which makes the full-footprint reservation and all
    total products candidate-independent.  The multiset must fit
    ``tops`` (the caller checks phase 1 first); otherwise phase 1's
    :class:`~repro.mapping.allocation.AllocationError` propagates.
    Raises :class:`BatchFallback` when exact float reproduction cannot
    be guaranteed.
    """
    ranks = table.rows
    count, n = ranks.shape
    if not count:
        raise ValueError("no candidate orderings to evaluate")
    first = table.ordering(0)
    spatial = utilized_spatial(layer, accel)

    # ------------------------------------------------------------------
    # Exactness guards (python ints, before any float64 enters).
    # ------------------------------------------------------------------
    total_iter = 1
    for _dim, factor in first:
        total_iter *= factor
    sp_prod = 1
    for unroll in spatial.values():
        sp_prod *= unroll
    if total_iter >= 1 << 53 or total_iter * sp_prod >= 1 << 62:
        raise BatchFallback(f"{layer.name}: loop volume beyond exact float64")
    full_products = merge_products(
        cumulative_dim_products(first, n), spatial
    )
    final_elems: dict[str, int] = {}
    for op in active_operands(layer):
        final_elems[op] = operand_footprint_elems(layer, op, full_products)
        if final_elems[op] >= 1 << 53:
            raise BatchFallback(f"{layer.name}/{op}: footprint beyond exact float64")

    # ------------------------------------------------------------------
    # Phase 1: full-footprint reservation (candidate-independent).
    # ------------------------------------------------------------------
    used0 = reserve_top_levels(layer, accel, tops, first, spatial)

    # ------------------------------------------------------------------
    # Candidate tensors: P[c, p, d], PF[c, p], suffix[c, p].
    # ------------------------------------------------------------------
    dim_of_class = np.array(
        [DIM_INDEX[dim] for dim, _ in table.loops], dtype=np.int64
    )
    factor_of_class = np.array([f for _, f in table.loops], dtype=np.int64)
    dims_idx = dim_of_class[ranks]
    factors = factor_of_class[ranks]
    rows = np.arange(count)  # gather index: one element per candidate
    one_hot = dims_idx[:, :, None] == np.arange(len(DIMS))
    step = np.where(one_hot, factors[:, :, None], 1)
    ones_dim = np.ones((count, 1, len(DIMS)), dtype=np.int64)
    P = np.concatenate([ones_dim, np.cumprod(step, axis=1)], axis=1)
    PF = np.concatenate(
        [np.ones((count, 1), dtype=np.int64), np.cumprod(factors, axis=1)],
        axis=1,
    )
    suffix = total_iter // PF  # exact: PF divides the total product

    sizes = layer.loop_sizes
    sizes_vec = np.array([sizes[d] for d in DIMS], dtype=np.int64)
    spatial_vec = np.array([spatial.get(d, 1) for d in DIMS], dtype=np.int64)
    clamp_plain = np.minimum(P, sizes_vec)
    clamp_merged = np.minimum(P * spatial_vec, sizes_vec)

    operands = active_operands(layer)

    def footprints(clamped) -> dict[str, "np.ndarray"]:
        out = {}
        for op in operands:
            def get(dim: str, _c=clamped):
                return _c[:, :, DIM_INDEX[dim]]

            out[op] = operand_footprint(layer, op, get, minimum=np.minimum)
        return out

    elems_plain = footprints(clamp_plain)    # per-PE levels: no spatial merge
    elems_merged = footprints(clamp_merged)  # shared levels + cost model

    # ------------------------------------------------------------------
    # Phase 2: greedy boundary placement as prefix scans.
    # ------------------------------------------------------------------
    used: dict[int, "np.ndarray"] = {
        uid: np.full(count, value) for uid, value in used0.items()
    }
    n_col = np.full(count, n, dtype=np.int64)
    pos = np.arange(1, n + 1)
    boundaries: dict[str, "np.ndarray"] = {}
    for op in PRIORITY:
        if op not in operands:
            boundaries[op] = n_col[:, None]
            continue
        hierarchy = accel.hierarchy(op)
        top = tops.get(op, len(hierarchy) - 1)
        levels = hierarchy[: top + 1]
        cols = []
        prev = np.zeros(count, dtype=np.int64)
        for idx, level in enumerate(levels):
            if idx == len(levels) - 1:
                cols.append(n_col)
                break
            inst = level.instance
            avail = inst.size_bytes - used.get(inst.uid, np.zeros(count))
            elems = (elems_plain if inst.per_pe else elems_merged)[op]
            bits = layer.psum_bits if op == "O" else layer.operand_bits(op)
            resident = elems * bits / 8.0  # (C, n+1) float64, scalar-exact
            # Greedy walk == length of the leading run of prefixes that
            # still fit (positions at or below the previous boundary
            # count as already taken).
            fits = resident[:, 1:] <= avail[:, None]
            taken = fits | (pos[None, :] <= prev[:, None])
            bound = np.cumprod(taken, axis=1, dtype=np.int64).sum(axis=1)
            at_bound = resident[rows, bound]
            if not inst.per_pe:
                used[inst.uid] = used.get(inst.uid, np.zeros(count)) + np.minimum(
                    at_bound, avail
                )
            cols.append(bound)
            prev = bound
        boundaries[op] = np.stack(cols, axis=1)

    # ------------------------------------------------------------------
    # Cost model (§2.1), candidate axis leading everywhere.
    # ------------------------------------------------------------------
    traffic: dict[TrafficKey, list] = {}

    def entry(category: str, level_name: str) -> list:
        key = (category, level_name)
        arrays = traffic.get(key)
        if arrays is None:
            arrays = [np.zeros(count), np.zeros(count), np.zeros(count)]
            traffic[key] = arrays
        return arrays

    bytes_demand: dict[int, object] = {}
    iterations = total_iter

    for op in ("W", "I", "O"):
        if op == "W" and layer.weight_count == 0:
            continue
        hierarchy = accel.hierarchy(op)
        top = tops.get(op, len(hierarchy) - 1)
        levels = hierarchy[: top + 1]
        act_bytes = layer.operand_bits(op) / 8.0
        psum_bytes = layer.psum_bits / 8.0

        # Datapath boundary: array <-> level 0 (candidate-independent,
        # broadcast into the candidate-axis accumulators).
        level0 = levels[0]
        inst0 = level0.instance
        wave_elems = spatial_relevant(layer, op, spatial)
        datapath_elems = iterations * wave_elems
        e0 = entry(op, level0.name)
        if op == "O":
            e0[0] += datapath_elems
            e0[1] += datapath_elems
            e0[2] += datapath_elems * psum_bytes * (
                inst0.r_energy_pj_per_byte + inst0.w_energy_pj_per_byte
            )
            bytes_demand[inst0.uid] = bytes_demand.get(inst0.uid, 0.0) + (
                2.0 * datapath_elems * psum_bytes
            )
        else:
            e0[0] += datapath_elems
            e0[2] += datapath_elems * act_bytes * inst0.r_energy_pj_per_byte
            bytes_demand[inst0.uid] = bytes_demand.get(inst0.uid, 0.0) + (
                datapath_elems * act_bytes
            )

        # Inter-level boundaries.
        final = final_elems[op]
        relevant = layer.relevant_dims(op)
        rel_tab = np.array([d in relevant for d in DIMS])
        irrelevant = ~rel_tab[dims_idx]  # (C, n)
        for levelidx in range(1, len(levels)):
            lower = levels[levelidx - 1]
            upper = levels[levelidx]
            prefix = boundaries[op][:, levelidx - 1]
            above = suffix[rows, prefix]
            # Stationarity credit: contiguous irrelevant run above the
            # boundary, as a prefix-product ratio.
            run_ok = (np.arange(n)[None, :] < prefix[:, None]) | irrelevant
            run = np.cumprod(run_ok, axis=1, dtype=np.int64).sum(axis=1)
            credit = PF[rows, run] // PF[rows, prefix]
            resident = elems_merged[op][rows, prefix]
            product = resident.astype(np.float64) * above.astype(np.float64)
            if product.size and float(product.max()) >= _EXACT:
                raise BatchFallback(
                    f"{layer.name}/{op}: crossings beyond exact float64"
                )
            crossings = product / credit

            le = entry(op, lower.name)
            ue = entry(op, upper.name)
            li, ui = lower.instance, upper.instance

            if op == "O":
                up = np.maximum(crossings, final)
                back = up - final
                psum_up = back  # non-final ascents carry psum precision
                le[0] += up
                ue[1] += up
                le[1] += back
                ue[0] += back
                up_bytes = psum_up * psum_bytes + final * act_bytes
                le[2] += up_bytes * li.r_energy_pj_per_byte
                le[2] += back * psum_bytes * li.w_energy_pj_per_byte
                ue[2] += up_bytes * ui.w_energy_pj_per_byte
                ue[2] += back * psum_bytes * ui.r_energy_pj_per_byte
                moved = up_bytes + back * psum_bytes
                bytes_demand[li.uid] = bytes_demand.get(li.uid, 0.0) + moved
                bytes_demand[ui.uid] = bytes_demand.get(ui.uid, 0.0) + moved
            else:
                down = np.maximum(crossings, final)
                ue[0] += down
                le[1] += down
                ue[2] += down * act_bytes * ui.r_energy_pj_per_byte
                le[2] += down * act_bytes * li.w_energy_pj_per_byte
                moved = down * act_bytes
                bytes_demand[li.uid] = bytes_demand.get(li.uid, 0.0) + moved
                bytes_demand[ui.uid] = bytes_demand.get(ui.uid, 0.0) + moved

    # Latency: compute cycles vs. the most demanded memory port, in
    # bytes_demand insertion order (same accumulation as the scalar path).
    stall_limited = 0.0
    by_uid = accel.instances_by_uid()
    for uid, demand in bytes_demand.items():
        inst = by_uid[uid]
        if inst.bandwidth_bytes <= 0 or inst.bandwidth_bytes == float("inf"):
            continue
        stall_limited = np.maximum(stall_limited, demand / inst.bandwidth_bytes)
    latency = np.maximum(np.full(count, float(iterations)), stall_limited)

    return BatchEvaluation(
        layer, accel, tops, table,
        boundaries=boundaries,
        latency=latency,
        traffic={key: tuple(arrays) for key, arrays in traffic.items()},
        mac_count=layer.mac_count,
        mac_energy_pj=layer.mac_count * accel.mac_energy_pj,
        compute_cycles=iterations,
    )
