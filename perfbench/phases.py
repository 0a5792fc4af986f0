"""The measured phases of the three workloads, driven through the public
library API (``DepthFirstEngine.evaluate``; ``DSERunner`` on ``Executor``).

A phase repeats whole units of work — a pass over the sweep sample, or
one genetic search — until ``seconds`` have elapsed (or exactly
``units`` of them when given), and checks every simulated result
against the committed reference table.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import threading
from dataclasses import dataclass, field
from time import perf_counter

import universe as U

U.use_checkout_source()

from repro import (  # noqa: E402  (needs the checkout's src on sys.path)
    DepthFirstEngine,
    DesignSpace,
    DFStrategy,
    DSERunner,
    EvalJob,
    Executor,
    GeneticSearch,
    MappingCache,
    OverlapMode,
    SearchConfig,
    get_accelerator,
    get_workload,
)

CONFIG = SearchConfig(lpf_limit=U.LPF_LIMIT, budget=U.BUDGET)


@dataclass
class Phase:
    """What one measured phase did and saw (host time throughout)."""

    wall_s: float = 0.0
    units: int = 0
    attempted: int = 0
    failed: int = 0
    #: Per-point latency samples in seconds.
    point_s: list = field(default_factory=list)
    #: Simulated outputs in evaluation order (identity checks).
    outputs: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    peak_workers: int = 0

    def record(self, key: str, ok: bool, output) -> None:
        self.attempted += 1
        self.failed += not ok
        self.outputs.append((key, output))


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_jobs() -> int:
    """Worker processes of a parallel executor: never more than ``nproc``."""
    return min(U.DSE_JOBS, usable_cpus())


# ----------------------------------------------------------------------
# Memory: peak RSS of this process and its worker processes
# ----------------------------------------------------------------------
_PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def _process_table() -> dict[int, tuple[int, int]]:
    """``pid -> (ppid, rss bytes)`` of every visible process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rfind(b")") + 2 :].split()
        table[int(entry)] = (int(fields[1]), int(fields[21]) * _PAGE)
    return table


class TreeMonitor:
    """Samples the summed RSS of this process and all its descendants."""

    INTERVAL_S = 0.1

    def __init__(self) -> None:
        self.peak_bytes = 0
        self.peak_workers = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        table = _process_table()
        children: dict[int, list[int]] = {}
        for pid, (ppid, _) in table.items():
            children.setdefault(ppid, []).append(pid)
        root = os.getpid()
        tree, todo = [], [root]
        while todo:
            pid = todo.pop()
            tree.append(pid)
            todo.extend(children.get(pid, ()))
        rss = sum(table[pid][1] for pid in tree if pid in table)
        self.peak_bytes = max(self.peak_bytes, rss)
        self.peak_workers = max(self.peak_workers, len(tree) - 1)

    def _loop(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            self._sample()

    def __enter__(self) -> "TreeMonitor":
        if os.path.isdir("/proc"):
            self._sample()
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()
        own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        self.peak_bytes = max(self.peak_bytes, own_peak)


def monitored(run, *args, **kwargs) -> Phase:
    """Run a phase while sampling the memory of the process tree."""
    with TreeMonitor() as monitor:
        phase = run(*args, **kwargs)
    phase.peak_rss_mb = monitor.peak_bytes / 2**20
    phase.peak_workers = monitor.peak_workers
    return phase


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def _sweep_pass(points, cache: MappingCache, reference: U.Reference, phase: Phase):
    workloads = {network: get_workload(network) for network, _ in U.SWEEP_PAIRS}
    engines = {
        accelerator: DepthFirstEngine(get_accelerator(accelerator), CONFIG, cache=cache)
        for _, accelerator in U.SWEEP_PAIRS
    }
    for network, accelerator, tx, ty, mode in points:
        key = U.sweep_key(network, accelerator, tx, ty, mode)
        strategy = DFStrategy(tile_x=tx, tile_y=ty, mode=OverlapMode(mode))
        start = perf_counter()
        try:
            total = engines[accelerator].evaluate(workloads[network], strategy).total
        except Exception as exc:  # a failed point, not a failed run
            phase.point_s.append(perf_counter() - start)
            phase.record(key, False, repr(exc))
            continue
        phase.point_s.append(perf_counter() - start)
        output = (total.energy_pj, total.latency_cycles)
        phase.record(key, reference.sweep.get(key) == output, output)


def run_sweep(
    seed: int,
    reference: U.Reference,
    seconds: float,
    cache: MappingCache | None = None,
    units: int | None = None,
) -> Phase:
    """Evaluate sweep samples one point at a time on engines sharing one
    cache, pass after pass.

    Cold (no ``cache``): pass ``k`` evaluates sample ``k`` of ``seed`` from
    an empty cache.  Warm: every pass evaluates sample 0 against the given
    pre-loaded cache.
    """
    phase = Phase()
    start = perf_counter()
    while _more(phase, start, seconds, units):
        if cache is None:
            points = U.sweep_points(seed, phase.units)
            _sweep_pass(points, MappingCache(), reference, phase)
        else:
            _sweep_pass(U.sweep_points(seed), cache, reference, phase)
        phase.units += 1
    phase.wall_s = perf_counter() - start
    return phase


def _write_warm_cache(seed: int, path: str) -> None:
    jobs = [
        EvalJob(accelerator, network, DFStrategy(tx, ty, OverlapMode(mode)))
        for network, accelerator, tx, ty, mode in U.sweep_points(seed)
    ]
    executor = Executor(jobs=worker_jobs(), search_config=CONFIG, cache=MappingCache())
    executor.run(jobs)
    executor.cache.save(path)


def write_warm_cache(seed: int, path: str) -> None:
    """The untimed cold pass of the warm workload: evaluates its sample
    (in parallel, as nothing of it is measured) in a child process, so its
    memory stays out of the measuring process, and writes the cache to
    ``path``."""
    child = multiprocessing.get_context("fork").Process(
        target=_write_warm_cache, args=(seed, path)
    )
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"warm-cache pass exited with code {child.exitcode}")


# ----------------------------------------------------------------------
# DSE
# ----------------------------------------------------------------------
def dse_space() -> DesignSpace:
    return DesignSpace(
        accelerators=U.DSE_ACCELERATORS,
        tile_x=U.TILE_X,
        tile_y=U.TILE_Y,
        modes=tuple(OverlapMode(mode) for mode in U.MODES),
        fuse_depths=U.DSE_FUSE_DEPTHS,
    )


class _TimedExecutor(Executor):
    """Records each dispatched generation's wall time per evaluation."""

    def __init__(self, phase: Phase, **kwargs) -> None:
        super().__init__(**kwargs)
        self.phase = phase

    def run(self, spec):
        start = perf_counter()
        results = super().run(spec)
        if results:
            share = (perf_counter() - start) / len(results)
            self.phase.point_s.extend([share] * len(results))
        return results


def run_dse(
    seed: int,
    reference: U.Reference,
    seconds: float,
    units: int | None = None,
    population: int = U.DSE_POPULATION,
    generations: int = U.DSE_GENERATIONS,
) -> Phase:
    """Seeded NSGA-II searches, each on a fresh cache and executor, until
    ``seconds`` have elapsed.  Every fresh evaluation is one point."""
    space = dse_space()
    seeds = U.dse_search_seeds(seed)
    phase = Phase()
    start = perf_counter()
    while _more(phase, start, seconds, units):
        search_seed = next(seeds)
        phase.units += 1
        with _TimedExecutor(
            phase, jobs=worker_jobs(), search_config=CONFIG, cache=MappingCache()
        ) as executor:
            runner = DSERunner(
                space,
                U.DSE_WORKLOAD,
                U.DSE_OBJECTIVES,
                executor=executor,
                seed=search_seed,
            )
            try:
                result = runner.run(GeneticSearch(population, generations))
            except Exception as exc:
                phase.record(f"search:{search_seed}", False, repr(exc))
                continue
        for point, values, violation in sorted(
            result.evaluated.values(), key=lambda entry: entry[0].sort_key()
        ):
            key = U.dse_key(
                point.accelerator, point.tile_x, point.tile_y, point.mode.value,
                point.fuse_depth,
            )
            ok = violation == 0 and reference.dse.get(key) == tuple(values)
            phase.record(key, ok, (values, violation))
        phase.outputs.append(
            ("frontier", [entry.values for entry in result.frontier.entries])
        )
    phase.wall_s = perf_counter() - start
    return phase


def _more(phase: Phase, start: float, seconds: float, units: int | None) -> bool:
    if units is not None:
        return phase.units < units
    return phase.units == 0 or perf_counter() - start < seconds
