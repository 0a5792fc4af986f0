"""Parallel sweep executor: runs :class:`~repro.explore.spec.SweepSpec`
job lists serially or across worker processes.

Design rules:

* **Determinism** — results come back in job order and parallel runs
  are bit-identical to serial ones: every job is an
  independent evaluation, and the mapping search is deterministic, so
  cache state (cold, warm, or pre-warmed) never changes a result, only
  how fast it is produced.
* **Cache flow** — the executor owns a
  :class:`~repro.mapping.cache.MappingCache`.  Serial runs share it
  across all engines; parallel runs pre-warm each worker process with a
  snapshot of it and harvest the workers' new entries back, so a
  subsequent run (or a :meth:`~repro.mapping.cache.MappingCache.save`)
  benefits from everything any worker learned.
* **Shipping** — jobs may reference zoo workloads/accelerators by name,
  which keeps the pickled payload tiny; objects are pickled as-is.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from .. import obs
from ..core.results import ScheduleResult, StackResult
from ..core.scheduler import DepthFirstEngine
from ..core.stacks import Stack
from ..core.strategy import DFStrategy
from ..mapping.cache import MappingCache
from ..mapping.cost import Objective, resolve_objective
from ..mapping.loma import SearchConfig
from .spec import EvalJob, SweepSpec


@dataclass(frozen=True)
class EvalResult:
    """One evaluated job: a ``ScheduleResult`` for ``"schedule"`` jobs,
    a ``StackResult`` for ``"stack"`` jobs."""

    job: EvalJob
    result: "ScheduleResult | StackResult"
    index: int

    @property
    def strategy(self) -> DFStrategy:
        """The evaluated strategy (``SweepPoint``-compatible)."""
        return self.job.strategy

    def score(self, objective: "str | Objective") -> float:
        return resolve_objective(objective)(self.result.total)


def _resolve_accelerator(ref):
    if isinstance(ref, str):
        from ..hardware.zoo import get_accelerator

        return get_accelerator(ref)
    return ref


def _resolve_workload(ref):
    if isinstance(ref, str):
        from ..workloads.zoo import get_workload

        return get_workload(ref)
    return ref


def _ref_key(ref) -> "str | int":
    return ref if isinstance(ref, str) else id(ref)


class _JobRunner:
    """Evaluates jobs against per-accelerator engines sharing one cache.

    Used directly by serial runs and as process-global state by each
    pool worker.  Engines and workloads are memoized per reference (zoo
    name, or ``id()`` of an object the job list keeps alive).
    """

    def __init__(
        self,
        search_config: SearchConfig | None,
        policy,
        cache: MappingCache,
    ) -> None:
        self.search_config = search_config
        self.policy = policy
        self.cache = cache
        self._engines: dict[str | int, DepthFirstEngine] = {}
        self._workloads: dict[str | int, object] = {}

    def engine_for(self, job: EvalJob) -> DepthFirstEngine:
        key = _ref_key(job.accelerator)
        engine = self._engines.get(key)
        if engine is None:
            engine = DepthFirstEngine(
                _resolve_accelerator(job.accelerator),
                self.search_config,
                self.policy,
                cache=self.cache,
            )
            self._engines[key] = engine
        return engine

    def workload_for(self, job: EvalJob):
        key = _ref_key(job.workload)
        workload = self._workloads.get(key)
        if workload is None:
            workload = _resolve_workload(job.workload)
            self._workloads[key] = workload
        return workload

    def evaluate(self, job: EvalJob) -> "ScheduleResult | StackResult":
        engine = self.engine_for(job)
        workload = self.workload_for(job)
        if job.kind == "stack":
            layers = tuple(workload.layer(n) for n in job.stack_layers)
            stack = Stack(
                index=job.stack_index,
                workload=workload.subgraph(job.stack_layers),
                layers=layers,
            )
            return engine.evaluate_stack(
                workload,
                job.strategy,
                stack,
                input_locations=dict(job.input_locations),
            )
        return engine.evaluate(workload, job.strategy)


# ----------------------------------------------------------------------
# Worker-process plumbing (module-level: must be picklable / importable)
# ----------------------------------------------------------------------
_WORKER_RUNNER: list[_JobRunner] = []


def _worker_init(search_config, policy, warm_entries, obs_enabled=False) -> None:
    """Process-pool initializer: build this worker's runner, pre-warmed
    with the parent cache's entries.  Telemetry restarts from a clean
    worker-local registry (no tracer — the trace file is single-writer)
    so the parent's fork-merge harvest never double-counts."""
    obs.worker_begin(obs_enabled)
    cache = MappingCache()
    cache.merge(warm_entries)
    _WORKER_RUNNER.clear()
    _WORKER_RUNNER.append(_JobRunner(search_config, policy, cache))


def _worker_run_shard(shard: "list[tuple[int, EvalJob]]"):
    """Evaluate one shard; returns indexed results, the cache entries
    this worker learned, its (hits, misses) delta — so the parent can
    harvest new results *and* keep aggregate statistics truthful — and
    the worker's telemetry registry dump (``None`` when telemetry is
    off), fork-merged into the parent registry."""
    runner = _WORKER_RUNNER[0]
    baseline = runner.cache.keys()
    hits0, misses0 = runner.cache.hits, runner.cache.misses
    results = [(index, runner.evaluate(job)) for index, job in shard]
    stats = (runner.cache.hits - hits0, runner.cache.misses - misses0)
    return results, runner.cache.delta(baseline), stats, obs.harvest()


class Executor:
    """Runs sweep jobs serially or across a process pool.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) evaluates in-process; ``0``
        or ``None`` means one worker per CPU.  A run with a single job
        is always evaluated in-process.
    search_config, policy:
        Engine construction knobs, shared by every evaluation.
    cache:
        A :class:`MappingCache` handle shared across the run (and, if
        disk-backed, across runs).  A private in-memory cache is created
        when omitted.  A :class:`~repro.serve.cache_server.CacheClient`
        is accepted anywhere a cache is: the run then pre-warms from and
        harvests back to the remote server's live table.

    Serial and parallel runs return bit-identical results for the same
    job list.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        search_config: SearchConfig | None = None,
        policy=None,
        cache: MappingCache | None = None,
    ) -> None:
        if jobs is None or jobs == 0:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.search_config = search_config
        self.policy = policy
        self.cache = cache if cache is not None else MappingCache()

    # ------------------------------------------------------------------
    def run(self, spec: "SweepSpec | Iterable[EvalJob]") -> list[EvalResult]:
        """Evaluate every job; results are returned in job order and are
        identical whether they ran serially or in the pool."""
        jobs = list(spec.jobs if isinstance(spec, SweepSpec) else spec)
        if not jobs:
            return []
        backend = "serial" if self.jobs == 1 or len(jobs) == 1 else "process"
        with obs.span("executor.run", backend=backend, jobs=len(jobs)):
            if backend == "serial":
                results = self._run_serial(jobs)
            else:
                results = self._run_parallel(jobs)
        if obs.enabled:
            obs.metrics().counter(
                "executor_jobs_total", backend=backend
            ).inc(len(jobs))
        return results

    def close(self) -> None:
        """No-op: every run's worker pool is shut down before ``run()``
        returns.  Kept so ``with Executor(...)`` stays valid."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _run_serial(self, jobs: Sequence[EvalJob]) -> list[EvalResult]:
        runner = _JobRunner(self.search_config, self.policy, self.cache)
        return [
            EvalResult(job=job, result=runner.evaluate(job), index=i)
            for i, job in enumerate(jobs)
        ]

    def _run_parallel(self, jobs: Sequence[EvalJob]) -> list[EvalResult]:
        workers = min(self.jobs, len(jobs))
        # Round-robin sharding spreads expensive grid regions across
        # workers; one shard per worker maximizes in-worker cache reuse.
        shards: list[list[tuple[int, EvalJob]]] = [[] for _ in range(workers)]
        for i, job in enumerate(jobs):
            shards[i % workers].append((i, job))

        by_index: dict[int, object] = {}
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(
                self.search_config,
                self.policy,
                self.cache.snapshot(),
                obs.enabled,
            ),
        ) as pool:
            futures = [pool.submit(_worker_run_shard, shard) for shard in shards]
            for future in futures:
                results, new_entries, (hits, misses), telemetry = future.result()
                self.cache.merge(new_entries)
                self.cache.hits += hits
                self.cache.misses += misses
                obs.absorb(telemetry)
                by_index.update(results)
        return [
            EvalResult(job=job, result=by_index[i], index=i)
            for i, job in enumerate(jobs)
        ]
