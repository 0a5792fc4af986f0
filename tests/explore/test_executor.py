"""Executor tests: serial/parallel equivalence and cache flow.

The headline guarantee: the process pool returns results in the
same order and with bit-identical totals as a serial run.
"""

import os
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import DepthFirstEngine, DFStrategy, obs
from repro.core.optimizer import best_combination, sweep
from repro.core.scheduler import evaluate_strategy
from repro.core.strategy import OverlapMode
from repro.explore import EvalJob, Executor, MappingCache, SweepSpec

from ..conftest import make_tiny_workload

TILES = ((4, 4), (16, 16), (48, 32))
MODES = (OverlapMode.FULLY_CACHED,)


@pytest.fixture(scope="module")
def tiny():
    return make_tiny_workload()


@pytest.fixture(scope="module")
def grid_spec(tiny):
    # Accelerator by zoo name, workload by object: both ref styles in one
    # spec so the parallel path exercises name resolution and pickling.
    return SweepSpec.tile_grid("meta_proto_like_df", tiny, TILES, MODES)


class TestSerialExecutor:
    def test_results_in_job_order(self, grid_spec, fast_config):
        results = Executor(jobs=1, search_config=fast_config).run(grid_spec)
        assert [r.index for r in results] == list(range(len(grid_spec)))
        assert [r.job for r in results] == list(grid_spec.jobs)

    def test_matches_direct_engine(self, grid_spec, fast_config, meta_df, tiny):
        results = Executor(jobs=1, search_config=fast_config).run(grid_spec)
        engine = DepthFirstEngine(meta_df, fast_config)
        for r in results:
            direct = engine.evaluate(tiny, r.job.strategy)
            assert r.result.total == direct.total

    def test_empty_spec(self, fast_config):
        assert Executor(jobs=1, search_config=fast_config).run(SweepSpec()) == []

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            Executor(jobs=-2)

    @pytest.mark.parametrize("jobs", [0, None])
    def test_zero_or_none_jobs_means_one_per_cpu(self, jobs):
        assert Executor(jobs=jobs).jobs == (os.cpu_count() or 1)

    def test_removed_backend_option_rejected(self):
        # The process pool is the only parallel path; there is no
        # backend switch left to select.
        with pytest.raises(TypeError):
            Executor(jobs=2, backend="service")

    def test_result_accessors(self, grid_spec, fast_config):
        results = Executor(jobs=1, search_config=fast_config).run(grid_spec)
        for r in results:
            assert r.strategy == r.job.strategy
            assert r.score("energy") == r.result.total.energy_pj
            assert r.score("latency") == r.result.total.latency_cycles


class TestParallelExecutor:
    def test_parallel_identical_to_serial(self, grid_spec, fast_config):
        serial = Executor(jobs=1, search_config=fast_config).run(grid_spec)
        parallel = Executor(jobs=2, search_config=fast_config).run(grid_spec)
        assert len(serial) == len(parallel)
        for s, p in zip(serial, parallel):
            assert s.job == p.job
            assert s.result.total == p.result.total
            assert s.result.strategy_label == p.result.strategy_label

    def test_parallel_harvests_worker_cache_entries(self, grid_spec, fast_config):
        executor = Executor(jobs=2, search_config=fast_config)
        assert len(executor.cache) == 0
        executor.run(grid_spec)
        assert len(executor.cache) > 0
        # Worker hit/miss counters are aggregated into the parent cache:
        # every stored entry was missed at least once, in some worker
        # (workers may independently miss the same key).
        assert executor.cache.misses >= len(executor.cache)
        assert executor.cache.hits > 0

    def test_lbl_and_sl_strategies_survive_pickling(self, tiny, fast_config):
        # Regression: one_layer_per_stack used a sentinel *identity*
        # check, which broke once strategies were pickled to workers.
        import pickle

        for strategy in (DFStrategy.layer_by_layer(), DFStrategy.single_layer()):
            clone = pickle.loads(pickle.dumps(strategy))
            assert clone.one_layer_per_stack

        spec = SweepSpec.strategies(
            "meta_proto_like_df", tiny,
            (DFStrategy.layer_by_layer(), DFStrategy.single_layer()),
        )
        serial = Executor(jobs=1, search_config=fast_config).run(spec)
        parallel = Executor(jobs=2, search_config=fast_config).run(spec)
        for s, p in zip(serial, parallel):
            assert s.result.total == p.result.total
            assert p.result.strategy_label in ("LBL", "SL")

    def test_prewarmed_workers_redo_nothing(self, grid_spec, fast_config):
        executor = Executor(jobs=2, search_config=fast_config)
        executor.run(grid_spec)
        warm = executor.cache
        before = len(warm)
        # Re-running with the now-warm cache must add no new entries.
        executor.run(grid_spec)
        assert len(warm) == before


    def test_results_in_job_order(self, grid_spec, fast_config):
        results = Executor(jobs=2, search_config=fast_config).run(grid_spec)
        assert [r.index for r in results] == list(range(len(grid_spec)))
        assert [r.job for r in results] == list(grid_spec.jobs)

    def test_more_workers_than_jobs(self, grid_spec, fast_config):
        serial = Executor(jobs=1, search_config=fast_config).run(grid_spec)
        wide = Executor(jobs=len(grid_spec) + 3, search_config=fast_config)
        parallel = wide.run(grid_spec)
        assert [p.result.total for p in parallel] == [
            s.result.total for s in serial
        ]

    def test_accepts_a_plain_job_iterable(self, grid_spec, fast_config):
        from_spec = Executor(jobs=2, search_config=fast_config).run(grid_spec)
        from_iter = Executor(jobs=2, search_config=fast_config).run(
            job for job in grid_spec.jobs
        )
        assert [r.result.total for r in from_iter] == [
            r.result.total for r in from_spec
        ]

    def test_second_run_on_warm_cache_misses_nothing(self, grid_spec, fast_config):
        executor = Executor(jobs=2, search_config=fast_config)
        executor.run(grid_spec)
        hits, misses = executor.cache.hits, executor.cache.misses
        executor.run(grid_spec)
        # Workers were pre-warmed with every entry the first run
        # harvested, and their counters were folded back into the parent.
        assert executor.cache.misses == misses
        assert executor.cache.hits > hits


class TestBackendSelection:
    """``executor.run`` picks serial or the pool from ``jobs`` and the
    job count; the choice is visible in ``executor_jobs_total``."""

    @pytest.fixture
    def telemetry(self):
        obs.reset()
        obs.enable()
        try:
            yield obs.metrics()
        finally:
            obs.reset()

    def test_single_job_runs_in_process(self, tiny, fast_config, telemetry):
        spec = SweepSpec.tile_grid("meta_proto_like_df", tiny, TILES[:1], MODES)
        Executor(jobs=2, search_config=fast_config).run(spec)
        assert telemetry.value("executor_jobs_total", backend="serial") == 1
        assert telemetry.value("executor_jobs_total", backend="process") == 0

    def test_many_jobs_use_the_pool(self, grid_spec, fast_config, telemetry):
        Executor(jobs=2, search_config=fast_config).run(grid_spec)
        assert telemetry.value("executor_jobs_total", backend="process") == len(
            grid_spec
        )
        assert telemetry.value("executor_jobs_total", backend="serial") == 0


class TestLifecycle:
    def test_context_manager_returns_the_executor(self):
        executor = Executor(jobs=2)
        with executor as entered:
            assert entered is executor

    def test_close_is_idempotent_and_leaves_executor_usable(
        self, grid_spec, fast_config
    ):
        executor = Executor(jobs=2, search_config=fast_config)
        executor.close()
        executor.close()
        # Every run owns its pool, so a closed executor still runs.
        assert len(executor.run(grid_spec)) == len(grid_spec)


class TestParallelErrors:
    @staticmethod
    def jobs_with_bad_accelerator():
        return [
            EvalJob(
                accelerator=name,
                workload="fsrcnn",
                strategy=DFStrategy(tile_x=4, tile_y=4),
            )
            for name in ("no_such_accelerator", "no_such_accelerator_either")
        ]

    def test_worker_error_propagates(self, fast_config):
        with pytest.raises(KeyError, match="unknown accelerator"):
            Executor(jobs=2, search_config=fast_config).run(
                self.jobs_with_bad_accelerator()
            )

    def test_executor_survives_a_failed_run(self, grid_spec, fast_config):
        executor = Executor(jobs=2, search_config=fast_config)
        with pytest.raises(KeyError):
            executor.run(self.jobs_with_bad_accelerator())
        serial = Executor(jobs=1, search_config=fast_config).run(grid_spec)
        again = executor.run(grid_spec)
        assert [r.result.total for r in again] == [r.result.total for r in serial]


class _DyingWorkload:
    """Picklable workload stand-in: the first attribute an evaluation
    reads from it, in any process but the one that built it, kills that
    process outright (no exception, no cleanup)."""

    name = "dying"

    def __init__(self) -> None:
        self.owner = os.getpid()

    def __getattr__(self, attr):
        if not attr.startswith("__") and os.getpid() != self.__dict__.get("owner"):
            os._exit(13)
        raise AttributeError(attr)


class TestWorkerDeath:
    def test_dead_worker_raises_instead_of_hanging(self, fast_config):
        jobs = [
            EvalJob(
                accelerator="meta_proto_like_df",
                workload=_DyingWorkload(),
                strategy=DFStrategy(tile_x=tile, tile_y=tile),
            )
            for tile in (4, 8)
        ]
        outcome = {}

        def run():
            try:
                outcome["results"] = Executor(
                    jobs=2, search_config=fast_config
                ).run(jobs)
            except BaseException as exc:
                outcome["error"] = exc

        watchdog = threading.Thread(target=run, daemon=True)
        watchdog.start()
        watchdog.join(timeout=120)
        assert not watchdog.is_alive(), "Executor.run hung on a dead worker"
        assert isinstance(outcome.get("error"), BrokenProcessPool)

    def test_next_run_gets_a_fresh_pool(self, grid_spec, fast_config):
        executor = Executor(jobs=2, search_config=fast_config)
        dying = [
            EvalJob(
                accelerator="meta_proto_like_df",
                workload=_DyingWorkload(),
                strategy=DFStrategy(tile_x=tile, tile_y=tile),
            )
            for tile in (4, 8)
        ]
        with pytest.raises(BrokenProcessPool):
            executor.run(dying)
        assert len(executor.run(grid_spec)) == len(grid_spec)


class TestStackJobs:
    def test_best_combination_parallel_matches_serial(self, meta_df, fast_config, tiny):
        serial_engine = DepthFirstEngine(meta_df, fast_config)
        serial = best_combination(serial_engine, tiny, tile_sizes=TILES, modes=MODES)
        parallel_engine = DepthFirstEngine(meta_df, fast_config)
        parallel = best_combination(
            parallel_engine, tiny, tile_sizes=TILES, modes=MODES, jobs=2
        )
        assert parallel.total == serial.total
        assert parallel.strategy_label == serial.strategy_label

    def test_sweep_jobs_param_matches_serial(self, meta_df, fast_config, tiny):
        serial = sweep(DepthFirstEngine(meta_df, fast_config), tiny, TILES, MODES)
        parallel = sweep(
            DepthFirstEngine(meta_df, fast_config), tiny, TILES, MODES, jobs=2
        )
        for s, p in zip(serial, parallel):
            assert s.strategy == p.strategy
            assert s.result.total == p.result.total


class TestPicklableEntryPoint:
    def test_evaluate_strategy_matches_engine(self, meta_df, fast_config, tiny):
        strategy = DFStrategy(tile_x=8, tile_y=8)
        via_function = evaluate_strategy(
            meta_df, tiny, strategy, search_config=fast_config
        )
        via_engine = DepthFirstEngine(meta_df, fast_config).evaluate(tiny, strategy)
        assert via_function.total == via_engine.total

    def test_fills_a_shared_cache(self, meta_df, fast_config, tiny):
        cache = MappingCache()
        evaluate_strategy(
            meta_df, tiny, DFStrategy(tile_x=8, tile_y=8),
            search_config=fast_config, cache=cache,
        )
        assert len(cache) > 0
