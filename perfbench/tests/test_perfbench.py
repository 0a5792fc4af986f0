"""Tests of the benchmark itself: seeded generation, failure accounting,
worker bounds, identity-neutral tracing and the run contract.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import universe as U

U.use_checkout_source()

import layers  # noqa: E402
import phases  # noqa: E402
import run  # noqa: E402

#: Cheap points (large tiles) of the sweep universe, one per network.
CHEAP = [
    ("resnet18", "depfin_like", 960, 540, "fully_cached"),
    ("mobilenet_v1", "edge_tpu_like_df", 240, 270, "h_cached_v_recompute"),
    ("fsrcnn", "meta_proto_like_df", 960, 540, "fully_recompute"),
]


@pytest.fixture(scope="module")
def reference():
    return U.Reference.load()


def _perturbed(reference, key):
    sweep = dict(reference.sweep)
    energy, latency = sweep[key]
    sweep[key] = (energy * (1 + 1e-12), latency)
    return U.Reference(sweep, reference.dse)


# ----------------------------------------------------------------------
# Seeded generators
# ----------------------------------------------------------------------
def test_same_seed_gives_same_points_and_other_seed_different():
    assert U.sweep_points(7) == U.sweep_points(7)
    assert U.sweep_points(7) != U.sweep_points(8)
    assert U.sweep_points(7, 1) != U.sweep_points(7, 0)
    def searches(seed):
        return list(itertools.islice(U.dse_search_seeds(seed), 4))

    assert searches(7) == searches(7)
    assert searches(7) != searches(8)


def test_sweep_sample_is_stratified_over_tiles_and_modes():
    points = U.sweep_points(3)
    assert len(points) == 108 >= 100
    assert set(points) <= set(U.sweep_universe())
    cells = Counter((n, tx, ty) for n, _, tx, ty, _ in points)
    assert set(cells.values()) == {1}
    rows = Counter((n, tx, mode) for n, _, tx, _, mode in points)
    cols = Counter((n, ty, mode) for n, _, _, ty, mode in points)
    assert set(rows.values()) == set(cols.values()) == {2}
    three = U.sweep_points(3, 0) + U.sweep_points(3, 1) + U.sweep_points(3, 2)
    assert sorted(three) == sorted(U.sweep_universe())


def test_reference_covers_every_universe_point(reference):
    assert set(reference.sweep) == {U.sweep_key(*p) for p in U.sweep_universe()}
    assert set(reference.dse) == {U.dse_key(*p) for p in U.dse_universe()}
    assert len(reference.sweep) == 324 and len(reference.dse) == 864


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
def test_perturbed_reference_value_counts_as_failed_point(reference):
    clean = phases.Phase()
    phases._sweep_pass(CHEAP, phases.MappingCache(), reference, clean)
    assert (clean.attempted, clean.failed) == (3, 0)

    broken = phases.Phase()
    bad = _perturbed(reference, U.sweep_key(*CHEAP[1]))
    phases._sweep_pass(CHEAP, phases.MappingCache(), bad, broken)
    assert (broken.attempted, broken.failed) == (3, 1)


def test_perturbed_dse_reference_counts_as_failed_points(reference):
    good = phases.run_dse(0, reference, 0, units=1, population=3, generations=1)
    assert good.attempted == 3 and good.failed == 0
    shifted = {k: (e + 1.0, lat) for k, (e, lat) in reference.dse.items()}
    bad = phases.run_dse(
        0, U.Reference(reference.sweep, shifted), 0, units=1, population=3,
        generations=1,
    )
    assert bad.failed == bad.attempted == 3


# ----------------------------------------------------------------------
# Worker bounds
# ----------------------------------------------------------------------
def test_no_workload_starts_more_than_nproc_workers(reference, monkeypatch):
    monkeypatch.setattr(phases.TreeMonitor, "INTERVAL_S", 0.01)
    assert phases.worker_jobs() <= phases.usable_cpus()
    dse = phases.monitored(
        phases.run_dse, 0, reference, 0, units=1, population=4, generations=2
    )
    assert dse.failed == 0
    assert dse.peak_workers <= phases.usable_cpus()
    sweep = phases.Phase()
    with phases.TreeMonitor() as monitor:
        phases._sweep_pass(CHEAP, phases.MappingCache(), reference, sweep)
    assert monitor.peak_workers == 0


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def test_traced_outputs_equal_untraced_and_originals_are_restored(reference):
    original = phases.DepthFirstEngine.evaluate
    plain = phases.Phase()
    phases._sweep_pass(CHEAP, phases.MappingCache(), reference, plain)
    traced = phases.Phase()
    with layers.LayerTracer() as tracer:
        phases._sweep_pass(CHEAP, phases.MappingCache(), reference, traced)
    assert traced.outputs == plain.outputs and traced.failed == 0
    assert phases.DepthFirstEngine.evaluate is original
    metrics, absent = tracer.metrics()
    assert absent == []
    assert metrics["core.evaluate.calls"] == 3
    assert metrics["mapping.evaluate_candidates.calls"] > 0
    assert metrics["mapping.orderings"] > 0 and metrics["core.tile_types"] > 0
    # Self times partition the wrapped time: they add up to the outermost
    # layer's inclusive time.
    assert tracer.self_time() == pytest.approx(metrics["core.evaluate.s"], rel=1e-9)


def test_removed_or_moved_layer_is_reported_absent_not_raised():
    gone = (
        ("core.gone", "repro.core.scheduler", "DepthFirstEngine.no_such_method"),
        ("core.moved", "repro.no_such_module", "function"),
    )
    with layers.LayerTracer(layers.LAYERS + gone) as tracer:
        pass
    metrics, absent = tracer.metrics()
    assert {"core.gone", "core.moved"} <= set(absent)
    assert metrics["core.gone.calls"] == 0


def test_metric_names_match_benchmark_json():
    units = run.metric_units()
    spec = json.loads((U.ROOT / "BENCHMARK.json").read_text())
    phase = phases.Phase(wall_s=1.0, attempted=10, point_s=[0.1] * 10)
    split = {
        "setup_s": 1, "import_s": 1, "workloads_s": 0, "workloads_calls": 1,
        "accelerators_s": 0, "accelerators_calls": 1, "cache_load_s": 0,
        "cache_load_calls": 0,
    }
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert set(run.end_to_end(phase, [split])) == end_to_end
    with layers.LayerTracer() as tracer:
        pass
    per_layer = set(tracer.metrics()[0]) | set(run.setup_layers([split]))
    per_layer |= {"trace.overhead", "trace.coverage", "trace.absent"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    assert set(units) == per_layer | end_to_end


# ----------------------------------------------------------------------
# The warm workload
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def warm_trace(reference, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("warm") / "cache.json")
    phases.write_warm_cache(0, path)
    cache = phases.MappingCache(path)
    entries = len(cache)
    with layers.LayerTracer() as tracer:
        phase = phases.run_sweep(0, reference, 0, cache, units=1)
    assert phase.failed == 0
    return tracer.metrics()[0], entries, len(cache)


def test_warm_sweep_stores_no_new_mappings(warm_trace):
    metrics, before, after = warm_trace
    assert metrics["mapping.cache_put.calls"] == 0
    assert before == after


@pytest.mark.xfail(
    strict=True,
    reason="searches whose tops are infeasible raise AllocationError and are "
    "never cached, so every warm pass scores their candidates again",
)
def test_warm_sweep_triggers_no_candidate_scoring(warm_trace):
    metrics, _, _ = warm_trace
    assert metrics["mapping.evaluate_candidates.calls"] == 0
    assert metrics["mapping.cache_hit_ratio"] == 1.0


# ----------------------------------------------------------------------
# The run contract
# ----------------------------------------------------------------------
def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(U.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(U.HERE, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
