"""LOMA hot-path throughput: batch vs. scalar mapping scorer.

Measures candidate orderings scored per second by
``MappingSearchEngine.search`` (the vectorized batch scorer) and by the
pure-python scalar reference scorer on cold-cache single-layer
searches, and writes the blessed numbers to ``BENCH_loma.json`` at the
repo root.  Regenerate with::

    python -m benchmarks.bench_loma            # quick workload set
    REPRO_FULL=1 python -m benchmarks.bench_loma

The run is deterministic: candidate enumeration is a fixed-seed
(deterministic ``islice``) sample of the permutation space, and both
scorers score the *same* candidate list — the speedup column compares
identical work.  Under pytest, the smoke tests assert the batch scorer's
advantage (>= 3x) and bit-identical results on one workload.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # `python benchmarks/bench_loma.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import get_accelerator, get_workload
from repro.mapping import MappingSearchEngine, SearchConfig, lpf_decompose
from repro.mapping.cache import encode_search_result
from repro.mapping.loma import candidate_table
from repro.mapping.temporal import temporal_sizes

#: Where the blessed numbers live (checked in; CI's bench-smoke job
#: expects a regeneration whenever src/repro/mapping/ changes).
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_loma.json"

#: (workload, accelerator) measurement points; the first row is the CI
#: smoke point.
QUICK_POINTS = (
    ("fsrcnn", "meta_proto_like_df"),
    ("mobilenet_v1", "edge_tpu_like"),
    ("resnet18", "tpu_like"),
)
FULL_POINTS = QUICK_POINTS + (
    ("dmcnn_vd", "ascend_like"),
    ("mccnn", "tesla_npu_like"),
)

#: Search knobs of the measurement (the fast-mode artifact settings).
LPF_LIMIT = 6
BUDGET = 400


def scalar_search(layer, accel, config: SearchConfig):
    """The scalar reference scorer on the candidate list ``search()``
    scores, under the full hierarchy."""
    loops = lpf_decompose(temporal_sizes(layer, accel), config.lpf_limit)
    tops = {op: accel.top_level_index(op) for op in ("W", "I", "O")}
    return MappingSearchEngine(config)._search_scalar(
        layer,
        accel,
        tops,
        candidate_table(loops, config.budget).orderings(),
        config.objective,
    )


def measure_point(
    workload_name: str, accel_name: str, scorer: str
) -> dict[str, float]:
    """Cold-cache search over every layer; returns orderings/s."""
    accel = get_accelerator(accel_name)
    layers = get_workload(workload_name).layers()
    config = SearchConfig(lpf_limit=LPF_LIMIT, budget=BUDGET)
    orderings = 0
    start = time.perf_counter()
    for layer in layers:
        if scorer == "scalar":
            result = scalar_search(layer, accel, config)
        else:
            # a fresh engine has an empty cache: the cold path
            result = MappingSearchEngine(config).search(layer, accel)
        orderings += result.evaluated
    elapsed = time.perf_counter() - start
    return {
        "orderings": orderings,
        "seconds": elapsed,
        "orderings_per_s": orderings / elapsed if elapsed else float("inf"),
    }


def run(points=QUICK_POINTS) -> dict:
    rows = []
    for workload_name, accel_name in points:
        row: dict = {"workload": workload_name, "accelerator": accel_name}
        for scorer in ("scalar", "batch"):
            row[scorer] = measure_point(workload_name, accel_name, scorer)
        row["speedup"] = (
            row["batch"]["orderings_per_s"] / row["scalar"]["orderings_per_s"]
        )
        rows.append(row)
    return {
        "benchmark": "loma-ordering-throughput",
        "config": {"lpf_limit": LPF_LIMIT, "budget": BUDGET, "cache": "cold"},
        "note": "deterministic candidate sample; both scorers score the "
        "same orderings, so speedup compares identical work",
        "points": rows,
    }


def write_results(results: dict, path: Path = RESULT_PATH) -> Path:
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


# ----------------------------------------------------------------------
# CI smoke tests
# ----------------------------------------------------------------------
def test_batch_speedup_smoke():
    """The batch scorer must score orderings >= 3x faster than scalar on
    the CI smoke point (locally it is typically 20-40x)."""
    workload_name, accel_name = QUICK_POINTS[0]
    scalar = measure_point(workload_name, accel_name, "scalar")
    batch = measure_point(workload_name, accel_name, "batch")
    speedup = batch["orderings_per_s"] / scalar["orderings_per_s"]
    assert batch["orderings"] == scalar["orderings"]
    assert speedup >= 3.0, (
        f"batch scorer only {speedup:.1f}x scalar "
        f"({batch['orderings_per_s']:.0f} vs "
        f"{scalar['orderings_per_s']:.0f} orderings/s)"
    )


def test_scorers_bit_identical_smoke():
    """Spot parity check on the smoke point (the exhaustive suite lives
    in tests/mapping/test_batch.py)."""
    workload_name, accel_name = QUICK_POINTS[0]
    accel = get_accelerator(accel_name)
    config = SearchConfig(lpf_limit=LPF_LIMIT, budget=BUDGET)
    for layer in get_workload(workload_name).layers():
        batch = MappingSearchEngine(config).search(layer, accel)
        scalar = scalar_search(layer, accel, config)
        assert encode_search_result(batch) == encode_search_result(scalar)
        assert batch.evaluated == scalar.evaluated


def main() -> int:
    import os

    points = FULL_POINTS if os.environ.get("REPRO_FULL") == "1" else QUICK_POINTS
    results = run(points)
    path = write_results(results)
    for row in results["points"]:
        print(
            f"{row['workload']:>14s} on {row['accelerator']:<18s} "
            f"scalar {row['scalar']['orderings_per_s']:8.0f}/s   "
            f"batch {row['batch']['orderings_per_s']:10.0f}/s   "
            f"speedup {row['speedup']:6.1f}x"
        )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
