"""Command-line interface mirroring the original artifact's ``main.py``,
plus subcommands for the subsystems grown on top of it.

The DeFiNES artifact is driven as::

    python main.py --accelerator inputs.HW.Edge_TPU_like \
                   --workload inputs.WL...workload_mccnn \
                   --dfmode 1 --tilex 16 --tiley 8

This reproduction exposes the same experiment as::

    python -m repro --accelerator edge_tpu_like --workload mccnn \
                    --mode h_cached_v_recompute --tilex 16 --tiley 8

``--tilex``/``--tiley`` accept comma-separated lists; more than one grid
point turns the run into a tile-size sweep executed by the exploration
runtime, which ``--jobs N`` spreads over worker processes.  ``--cache``
names a JSON mapping-cache file that persists LOMA search results
across runs (the second run of the same experiment skips the search).

Subcommands (the first CLI token selects one; no token = the classic
evaluation above):

``repro dse``
    Multi-objective design-space exploration: Pareto-frontier search
    over tile sizes, overlap modes, stack partitions and accelerators
    with exhaustive, random or genetic strategies (deterministic per
    ``--seed``, parallel via ``--jobs``).  The stack-partition axis is
    the ``--fuse-depths`` cap grid by default; ``--partition-genes``
    searches every explicit partition of the workload's branch-free
    segments instead (``--stacks 'auto;1;1,3'`` pins a candidate
    list).  ``--workloads a,b:2,c``
    searches a weighted multi-workload scenario; ``--memory-budget``,
    ``--latency-cap`` and ``--energy-cap`` add feasibility constraints
    (infeasible designs are listed by ``--show-infeasible``); the
    per-generation hypervolume convergence is printed after the
    frontier.
``repro cache-info``
    Inspect a persistent mapping-cache file (format version, entries,
    size, last session's hit/miss stats).
``repro stats``
    Inspect telemetry artifacts: every evaluating subcommand accepts
    ``--trace OUT.jsonl`` (structured span trace) and ``--metrics
    OUT.prom`` (counters/gauges/histograms, Prometheus text or JSON);
    ``repro stats FILE`` renders top spans by self time, wall-clock
    coverage and cache hit rates.
    Telemetry is identity-neutral: results are bit-identical with it
    on or off.
``repro serve``
    Run a standalone live cache server: every run pointed at it with
    ``--cache-server HOST:PORT`` (classic sweeps and ``dse`` alike)
    reads and writes one shared mapping table, so workers — across
    processes *and* machines — share LOMA results while runs are still
    in flight.  ``--cache FILE`` makes the server persist periodic
    atomic snapshots in the unchanged mapping-cache format;
    ``--metrics-port N`` adds an HTTP ``/metrics`` Prometheus endpoint.
``repro runs``
    The durable run ledger: every ``evaluate``/``dse`` invocation
    appends a JSON record under ``.repro/runs/`` (manifest, versions,
    convergence series, final metrics, outcome — crashed runs
    included).  ``runs list|show|diff|gc`` browse it; ``runs regress
    --baseline REF`` compares the latest run (and optionally a
    ``BENCH_loma.json``) against a baseline with per-metric thresholds
    and exits nonzero on regression — the CI perf gate.
``repro top``
    Live fleet monitoring: poll a cache server's ``stats`` wire op and
    render a refreshing terminal view — entries, hit rate, connections,
    queue depth, in-flight requests, request and evals/s.
``repro check``
    Static invariant checker: determinism (DET0xx), guarded-by
    concurrency (RACE0xx), cache-token purity (CACHE0xx) and doc-drift
    (DOC0xx) rules over the source tree itself, reconciled against the
    committed ``check_baseline.json`` of blessed exceptions.  ``check
    run --strict`` is the CI gate; ``check baseline`` regenerates the
    baseline; ``check rules`` lists the codes.

Results are printed and optionally written as JSON (the artifact wrote
pickle files; JSON keeps them human-readable and diffable).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Sequence

from . import obs
from .analysis import (
    access_breakdown,
    convergence_table,
    frontier_csv,
    frontier_table,
    infeasible_table,
    metrics_report,
    regress_report,
    run_diff_report,
    run_report,
    runs_table,
    trace_report,
)
from .check.cli import run_check
from .core import DepthFirstEngine, DFStrategy, OverlapMode
from .core.optimizer import PAPER_TILE_GRID_X, PAPER_TILE_GRID_Y
from .dse import (
    DesignSpace,
    DSERunner,
    MemoryBudgetConstraint,
    PartitionAxis,
    Scenario,
    create_strategy,
    energy_cap,
    latency_cap,
    load_reference_frontier,
    workload_segments,
)
from .explore import Executor, MappingCache, SweepSpec
from .hardware.zoo import ACCELERATOR_FACTORIES, get_accelerator
from .mapping import ENGINES, OBJECTIVE_NAMES, SearchConfig, validate_objectives
from .mapping.cache import cache_file_info
from .obs import ledger, parse_prometheus, regress
from .obs import top as obs_top
from .serve import AUTH_TOKEN_ENV, CacheClient, CacheServer, CacheServerError
from .workloads.zoo import WORKLOAD_FACTORIES, get_workload

#: The artifact's --dfmode integers, kept as aliases.
DFMODE_ALIASES = {
    "0": OverlapMode.FULLY_RECOMPUTE,
    "1": OverlapMode.H_CACHED_V_RECOMPUTE,
    "2": OverlapMode.FULLY_CACHED,
}

#: Every zoo accelerator name accepted by the CLI.
ACCELERATOR_NAMES = sorted(ACCELERATOR_FACTORIES) + ["depfin_like"]


# ----------------------------------------------------------------------
# Shared argument validators and option groups
# ----------------------------------------------------------------------
def _int_list(text: str) -> tuple[int, ...]:
    """Parse ``"4"`` or ``"4,16,60"`` into a tuple of ints."""
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an int list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"empty int list: {text!r}")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an int: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an int: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _name_list(text: str) -> tuple[str, ...]:
    """Parse a comma-separated list of names (``"a,b"``)."""
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise argparse.ArgumentTypeError(f"empty name list: {text!r}")
    return names


def _mode_list(text: str) -> tuple[OverlapMode, ...]:
    """Parse a comma-separated list of overlap modes (names or 0/1/2)."""
    modes = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            modes.append(_resolve_mode(part))
        except SystemExit as exc:
            # _resolve_mode serves non-argparse paths too; inside a
            # type= callable the failure must be an ArgumentTypeError
            # so argparse prints usage like every other bad argument.
            raise argparse.ArgumentTypeError(str(exc))
    if not modes:
        raise argparse.ArgumentTypeError(f"empty mode list: {text!r}")
    return tuple(modes)


def _byte_size(text: str) -> "int | str":
    """Parse a byte budget: a plain int with an optional K/M/G (or
    KB/MB/GB, KiB/MiB/GiB — all binary) suffix, or ``fit`` for "each
    accelerator's own on-chip activation capacity" (passed through as
    the string ``"fit"``; absence of the option stays None)."""
    t = text.strip().lower()
    if t == "fit":
        return "fit"
    for suffix, mult in (
        ("kib", 1024),
        ("mib", 1024**2),
        ("gib", 1024**3),
        ("kb", 1024),
        ("mb", 1024**2),
        ("gb", 1024**3),
        ("k", 1024),
        ("m", 1024**2),
        ("g", 1024**3),
    ):
        if t.endswith(suffix):
            t, scale = t[: -len(suffix)], mult
            break
    else:
        scale = 1
    try:
        value = int(float(t) * scale)
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(
            f"not a byte size: {text!r} (use an int, K/M/G suffixes, or 'fit')"
        )
    if value < 1:
        raise argparse.ArgumentTypeError(f"byte size must be >= 1: {text!r}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    # NaN fails this comparison too, so caps are always finite positives.
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0: {text!r}")
    return value


def _fuse_list(text: str) -> tuple[int | None, ...]:
    """Parse fuse depths: ints plus ``auto`` for the weights-fit rule."""
    values: list[int | None] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "auto":
            values.append(None)
            continue
        try:
            depth = int(part)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"fuse depth must be an int or 'auto': {part!r}"
            )
        if depth < 1:
            raise argparse.ArgumentTypeError(f"fuse depth must be >= 1: {depth}")
        values.append(depth)
    if not values:
        raise argparse.ArgumentTypeError(f"empty fuse-depth list: {text!r}")
    return tuple(values)


def _partition_list(text: str) -> "tuple[tuple[int, ...] | None, ...]":
    """Parse explicit stack-partition candidates: semicolon-separated
    cut-position lists (``'1,3'``), with ``'auto'`` for the weights-fit
    rule and ``'all'`` for no cuts (one fully fused stack); e.g.
    ``'auto;1;1,3;all'``."""
    candidates: "list[tuple[int, ...] | None]" = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if part == "auto":
            candidates.append(None)
            continue
        if part == "all":
            candidates.append(())
            continue
        try:
            cuts = tuple(
                int(p) for p in part.split(",") if p.strip()
            )
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad partition cuts {part!r}: use 'auto', 'all', or "
                "comma-separated cut positions like '1,3'"
            )
        if not cuts or any(c < 1 for c in cuts):
            raise argparse.ArgumentTypeError(
                f"partition cut positions must be >= 1: {part!r}"
            )
        candidates.append(tuple(sorted(set(cuts))))
    if not candidates:
        raise argparse.ArgumentTypeError(f"empty partition list: {text!r}")
    return tuple(candidates)


def _loss_fraction(text: str) -> float:
    """A regression tolerance: 0 <= value < 1 (0 = no loss allowed)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (0.0 <= value < 1.0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be in [0, 1), got {text!r}"
        )
    return value


def _sample_fraction(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (0.0 < value <= 1.0):
        raise argparse.ArgumentTypeError(
            f"sample fraction must be in (0, 1], got {text!r}"
        )
    return value


def _add_runtime_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by every evaluating subcommand: parallelism,
    persistent cache, LOMA search knobs, and the seed every randomized
    path (DSE samplers, future stochastic searches) must draw from."""
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for sweeps (1 = in-process serial)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        help="persistent mapping-cache JSON file (loaded if present, "
        "saved after the run)",
    )
    parser.add_argument(
        "--cache-server",
        default=None,
        metavar="HOST:PORT",
        help="live mapping-cache server ('repro serve') to read/write "
        "instead of a local cache; the server owns persistence, so "
        "this excludes --cache",
    )
    parser.add_argument(
        "--lpf-limit",
        type=int,
        default=6,
        help="LOMA loop-prime-factor limit (speed/quality knob; paper: 8)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=200,
        help="temporal-mapping orderings evaluated per layer-tile",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="batch",
        help="mapping-search engine: 'batch' scores all orderings in "
        "numpy array ops, 'scalar' is the pure-python reference; "
        "results are bit-identical (see README)",
    )
    parser.add_argument(
        "--seed",
        type=_seed,
        default=0,
        help="seed for randomized search paths (results are "
        "deterministic given a seed, whatever --jobs is)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="OUT.jsonl",
        help="write a structured JSON-lines trace of the run (spans "
        "with monotonic timestamps; inspect with 'repro stats'); "
        "results are bit-identical with tracing on or off",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="OUT.prom",
        help="write run metrics on exit: Prometheus text exposition, or "
        "the registry JSON dump when the path ends in .json",
    )
    parser.add_argument(
        "--trace-sample",
        type=_sample_fraction,
        default=1.0,
        metavar="FRACTION",
        help="fraction of root spans kept in the trace (deterministic "
        "counter rule, no rng; default: 1.0 = keep everything)",
    )
    parser.add_argument(
        "--runs-dir",
        default=None,
        metavar="DIR",
        help="run-ledger directory (default: $REPRO_RUNS_DIR, else "
        ".repro/runs); every run leaves a durable record there, "
        "inspectable with 'repro runs'",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not record this run in the run ledger "
        "(equivalent: REPRO_LEDGER=0)",
    )


def _resolve_cache(args) -> "MappingCache | CacheClient":
    """The run's mapping cache: a live server client when
    ``--cache-server`` is given, a (possibly disk-backed) local cache
    otherwise.  The server owns its own persistence, so combining the
    two is rejected."""
    if args.cache_server is not None:
        if args.cache is not None:
            raise SystemExit(
                "--cache and --cache-server are mutually exclusive: the "
                "server owns the persistent file (run 'repro serve "
                "--cache FILE')"
            )
        try:
            return CacheClient(args.cache_server)
        except (ValueError, CacheServerError) as exc:
            raise SystemExit(str(exc))
    return MappingCache(args.cache) if args.cache else MappingCache()


def _finish_cache(args, cache) -> None:
    """Post-run cache reporting/persistence: save a local file cache,
    or report (and leave persistence to) the live server."""
    if args.cache_server is not None:
        print(
            f"cache server {args.cache_server}: "
            f"{cache.server_stats()} (this run: {cache.hits} hits / "
            f"{cache.misses} misses)"
        )
        cache.close()
    elif args.cache:
        cache.save()
        print(f"mapping cache: {cache.stats} -> {args.cache}")


def _setup_obs(args) -> None:
    """Turn telemetry on when ``--trace``/``--metrics`` asks for it
    (metrics-only mode when only ``--metrics`` is given)."""
    if args.trace is None and args.metrics is None:
        return
    obs.enable(trace=args.trace, sample=args.trace_sample)


def _finish_obs(args) -> None:
    """Write the telemetry artifacts and reset the layer (so in-process
    callers — tests drive the CLI via ``main()`` — start clean)."""
    if not obs.enabled:
        return
    if args.metrics is not None:
        registry = obs.metrics()
        if str(args.metrics).endswith(".json"):
            registry.write_json(args.metrics)
        else:
            registry.write_prometheus(args.metrics)
        print(f"wrote {args.metrics} ({len(registry)} series)")
    tracer = obs.tracer()
    if tracer is not None:
        written, dropped = tracer.spans_written, tracer.spans_dropped
        obs.disable()  # closes the trace file before we report it
        note = f" ({dropped} sampled out)" if dropped else ""
        print(f"wrote {args.trace} ({written} span(s){note})")
    obs.reset()


def _begin_ledger(command: str, argv, args, **manifest) -> "ledger.RunHandle | None":
    """Open the run's ledger record (``None`` when the ledger is off or
    its directory is unwritable — a broken ledger must never take the
    run down, so the failure degrades to a stderr warning)."""
    if getattr(args, "no_ledger", False) or not ledger.ledger_enabled():
        return None
    manifest.update(
        seed=args.seed,
        engine=args.engine,
        jobs=args.jobs,
        budget=args.budget,
        lpf_limit=args.lpf_limit,
        cache=args.cache,
        cache_server=args.cache_server,
        trace=args.trace,
        metrics=args.metrics,
    )
    try:
        return ledger.begin_run(
            command, list(argv), manifest, directory=args.runs_dir
        )
    except OSError as exc:
        print(f"warning: run ledger disabled: {exc}", file=sys.stderr)
        return None


def _ledger_finish(
    handle, status: str = "ok", error: "str | None" = None, result=None
) -> None:
    if handle is None:
        return
    try:
        handle.finish(status, error=error, result=result)
    except OSError as exc:
        print(f"warning: run ledger write failed: {exc}", file=sys.stderr)


def _ledger_crash(handle, exc: BaseException) -> None:
    """Seal the record for a run that is about to re-raise."""
    status = "interrupted" if isinstance(exc, KeyboardInterrupt) else "crashed"
    _ledger_finish(handle, status, error=f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# Classic evaluation (the artifact's main.py)
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DeFiNES reproduction: evaluate a depth-first schedule.",
    )
    parser.add_argument(
        "--accelerator",
        required=True,
        choices=ACCELERATOR_NAMES,
        help="accelerator from the Table I(a) zoo",
    )
    parser.add_argument(
        "--workload",
        required=True,
        choices=sorted(WORKLOAD_FACTORIES),
        help="workload from the Table I(b) zoo",
    )
    parser.add_argument(
        "--mode",
        "--dfmode",
        dest="mode",
        default="fully_cached",
        help="overlap storing mode (name, or the artifact's 0/1/2)",
    )
    parser.add_argument(
        "--tilex",
        type=_int_list,
        default=(16,),
        help="tile width(s); a comma-separated list sweeps the grid",
    )
    parser.add_argument(
        "--tiley",
        type=_int_list,
        default=(8,),
        help="tile height(s); a comma-separated list sweeps the grid",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the result summary to this JSON file",
    )
    _add_runtime_options(parser)
    return parser


def _resolve_mode(text: str) -> OverlapMode:
    if text in DFMODE_ALIASES:
        return DFMODE_ALIASES[text]
    try:
        return OverlapMode(text)
    except ValueError:
        names = [m.value for m in OverlapMode] + sorted(DFMODE_ALIASES)
        raise SystemExit(f"unknown mode {text!r}; choose from {names}")


def result_summary(accel, result) -> dict:
    """A JSON-serializable summary of a schedule evaluation."""
    breakdown = access_breakdown(accel, result.total)
    return {
        "workload": result.workload_name,
        "accelerator": result.accelerator_name,
        "strategy": result.strategy_label,
        "energy_pj": result.energy_pj,
        "energy_mj": result.energy_mj,
        "latency_cycles": result.latency_cycles,
        "mac_count": result.mac_count,
        "edp": result.edp,
        "dram_accesses_elems": result.dram_accesses(),
        "accesses_by_tier": breakdown.by_tier(),
        "accesses_by_category": breakdown.by_category(),
        "stacks": [
            {
                "layers": list(sr.layer_names),
                "tile_grid": [sr.tiling.grid_cols, sr.tiling.grid_rows],
                "tile_types": sr.tile_type_count,
                "energy_pj": sr.total.energy_pj,
                "latency_cycles": sr.total.latency_cycles,
            }
            for sr in result.stacks
        ],
    }


def _print_schedule(result) -> None:
    print(result.describe())
    for sr in result.stacks:
        print(
            f"  stack[{'/'.join(sr.layer_names[:2])}"
            f"{'...' if len(sr.layer_names) > 2 else ''}]: "
            f"{sr.tiling.grid_cols}x{sr.tiling.grid_rows} tiles, "
            f"{sr.tile_type_count} types, "
            f"E={sr.total.energy_pj / 1e9:.3f} mJ"
        )


def run_evaluate(argv: Sequence[str]) -> int:
    """The classic artifact-style evaluation / tile sweep."""
    args = build_parser().parse_args(argv)
    accel = get_accelerator(args.accelerator)
    workload = get_workload(args.workload)
    mode = _resolve_mode(args.mode)
    config = SearchConfig(
        lpf_limit=args.lpf_limit, budget=args.budget, engine=args.engine
    )
    handle = _begin_ledger(
        "evaluate",
        argv,
        args,
        workload=args.workload,
        accelerators=[args.accelerator],
        accelerator_fingerprints={args.accelerator: accel.fingerprint()},
        mode=mode.value,
        tiles=len(args.tilex) * len(args.tiley),
    )
    _setup_obs(args)
    try:
        cache = _resolve_cache(args)

        tiles = [(tx, ty) for tx in args.tilex for ty in args.tiley]
        with obs.span(
            "repro.evaluate",
            accelerator=args.accelerator,
            workload=args.workload,
            tiles=len(tiles),
        ):
            if len(tiles) == 1:
                engine = DepthFirstEngine(accel, config, cache=cache)
                result = engine.evaluate(
                    workload,
                    DFStrategy(
                        tile_x=tiles[0][0], tile_y=tiles[0][1], mode=mode
                    ),
                )
                _print_schedule(result)
                summary = result_summary(accel, result)
            else:
                spec = SweepSpec.tile_grid(accel, workload, tiles, (mode,))
                with Executor(
                    jobs=args.jobs,
                    search_config=config,
                    cache=cache,
                ) as executor:
                    results = executor.run(spec)
                for r in results:
                    print(
                        f"{r.strategy.describe():28s} "
                        f"E={r.result.energy_mj:8.3f} mJ "
                        f"L={r.result.latency_cycles / 1e6:9.2f} Mcycles"
                    )
                best = min(results, key=lambda r: r.score("energy"))
                print(f"best (energy): {best.strategy.describe()}")
                _print_schedule(best.result)
                summary = {
                    "points": [result_summary(accel, r.result) for r in results],
                    "best_strategy": best.strategy.describe(),
                }

            _finish_cache(args, cache)
        if args.output:
            with open(args.output, "w") as f:
                json.dump(summary, f, indent=2)
            print(f"wrote {args.output}")
    except BaseException as exc:
        _ledger_crash(handle, exc)
        _finish_obs(args)
        raise
    if "points" in summary:
        outcome = {
            "points": len(summary["points"]),
            "best_strategy": summary["best_strategy"],
        }
    else:
        outcome = {
            "energy_mj": summary["energy_mj"],
            "latency_cycles": summary["latency_cycles"],
        }
    # The record must be sealed before _finish_obs resets the registry,
    # or a telemetry-on run would lose its metrics dump.
    _ledger_finish(handle, "ok", result=outcome)
    _finish_obs(args)
    return 0


# ----------------------------------------------------------------------
# repro dse — multi-objective Pareto-frontier search
# ----------------------------------------------------------------------
def build_dse_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro dse",
        description="Multi-objective design-space exploration: search the "
        "joint space of tile sizes, overlap modes, fuse depths and "
        "accelerators, maintaining a Pareto frontier.",
    )
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOAD_FACTORIES),
        help="single workload from the Table I(b) zoo",
    )
    parser.add_argument(
        "--workloads",
        default=None,
        help="multi-workload scenario: comma-separated zoo workloads "
        "with optional :weight suffixes (e.g. 'resnet18:3,fsrcnn,mccnn'); "
        "objectives become weight-averaged aggregates",
    )
    parser.add_argument(
        "--accelerators",
        type=_name_list,
        default=("meta_proto_like_df",),
        help="comma-separated zoo accelerators, or 'all'",
    )
    parser.add_argument(
        "--objectives",
        type=_name_list,
        default=("energy",),
        help=f"comma-separated objectives, all minimized; "
        f"choose from: {', '.join(OBJECTIVE_NAMES)}",
    )
    parser.add_argument(
        "--strategy",
        choices=("exhaustive", "random", "genetic"),
        default="genetic",
        help="search strategy over the design space",
    )
    parser.add_argument(
        "--tilex",
        type=_int_list,
        default=PAPER_TILE_GRID_X,
        help="candidate tile widths (default: the paper's Fig. 12 grid)",
    )
    parser.add_argument(
        "--tiley",
        type=_int_list,
        default=PAPER_TILE_GRID_Y,
        help="candidate tile heights (default: the paper's Fig. 12 grid)",
    )
    parser.add_argument(
        "--modes",
        type=_mode_list,
        default=tuple(OverlapMode),
        help="candidate overlap modes (names or the artifact's 0/1/2)",
    )
    parser.add_argument(
        "--fuse-depths",
        type=_fuse_list,
        default=(None,),
        help="candidate per-stack layer caps; 'auto' = weights-fit rule "
        "(e.g. 'auto,1,2,4')",
    )
    parser.add_argument(
        "--partition-genes",
        action="store_true",
        help="search explicit stack partitions (axis 3) as genes: every "
        "subset of cut positions over the workload's branch-free "
        "segments, plus the automatic weights-fit rule; replaces the "
        "--fuse-depths axis",
    )
    parser.add_argument(
        "--stacks",
        type=_partition_list,
        default=None,
        metavar="CUTS[;CUTS...]",
        help="explicit stack-partition candidates instead of the full "
        "--partition-genes space: semicolon-separated cut-position "
        "lists over the workload's branch-free segments, 'auto' for "
        "the weights-fit rule, 'all' for one fully fused stack (e.g. "
        "'auto;1;1,3')",
    )
    parser.add_argument(
        "--population",
        type=_positive_int,
        default=16,
        help="genetic: designs per generation",
    )
    parser.add_argument(
        "--generations",
        type=_positive_int,
        default=8,
        help="genetic: number of generations",
    )
    parser.add_argument(
        "--samples",
        type=_positive_int,
        default=64,
        help="random: designs to sample",
    )
    parser.add_argument(
        "--memory-budget",
        type=_byte_size,
        default=None,
        help="feasibility: peak activation working set must fit this "
        "many on-chip bytes (K/M/G suffixes allowed), or 'fit' for each "
        "accelerator's own activation capacity",
    )
    parser.add_argument(
        "--latency-cap",
        type=_positive_float,
        default=None,
        help="feasibility: per-workload latency must stay <= this many cycles",
    )
    parser.add_argument(
        "--energy-cap",
        type=_positive_float,
        default=None,
        help="feasibility: per-workload energy must stay <= this many pJ",
    )
    parser.add_argument(
        "--show-infeasible",
        action="store_true",
        help="also list evaluated designs that violate a constraint, "
        "with their violation magnitudes",
    )
    parser.add_argument(
        "--max-evals",
        type=_positive_int,
        default=None,
        help="evaluation budget: cap on fresh design evaluations "
        "(a scenario costs one cost-model run per member workload)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        help="JSON checkpoint: resumed if present, saved every generation",
    )
    parser.add_argument(
        "--reference",
        default=None,
        metavar="FRONTIER.json",
        help="reference frontier (a frontier checkpoint or a previous "
        "--output file): per-generation additive epsilon against it is "
        "tracked alongside the hypervolume",
    )
    parser.add_argument(
        "--csv",
        default=None,
        help="write the frontier as CSV to this file",
    )
    parser.add_argument(
        "--plot",
        default=None,
        metavar="OUT.png",
        help="write a frontier + convergence figure to this image file "
        "(skipped with a note when matplotlib is not installed)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the frontier summary to this JSON file",
    )
    _add_runtime_options(parser)
    return parser


def run_dse(argv: Sequence[str]) -> int:
    args = build_dse_parser().parse_args(argv)

    accelerators = args.accelerators
    if accelerators == ("all",):
        accelerators = tuple(ACCELERATOR_NAMES)
    for name in accelerators:
        if name not in ACCELERATOR_NAMES:
            raise SystemExit(
                f"unknown accelerator {name!r}; choose from "
                f"{', '.join(ACCELERATOR_NAMES)} (or 'all')"
            )
    try:
        validate_objectives(args.objectives)
    except ValueError as exc:
        raise SystemExit(str(exc))

    if (args.workload is None) == (args.workloads is None):
        raise SystemExit(
            "pass exactly one of --workload NAME or --workloads A,B:2,..."
        )
    if args.workloads is not None:
        try:
            workload = Scenario.parse(args.workloads)
        except ValueError as exc:
            raise SystemExit(str(exc))
        for name in workload.workload_names():
            if name not in WORKLOAD_FACTORIES:
                raise SystemExit(
                    f"unknown workload {name!r}; choose from "
                    f"{', '.join(sorted(WORKLOAD_FACTORIES))}"
                )
    else:
        workload = args.workload

    constraints = []
    if args.memory_budget is not None:
        budget = None if args.memory_budget == "fit" else args.memory_budget
        constraints.append(MemoryBudgetConstraint(budget_bytes=budget))
    if args.latency_cap is not None:
        constraints.append(latency_cap(args.latency_cap))
    if args.energy_cap is not None:
        constraints.append(energy_cap(args.energy_cap))

    partitions = None
    member_segments = None
    if args.partition_genes or args.stacks is not None:
        if args.partition_genes and args.stacks is not None:
            raise SystemExit(
                "--partition-genes and --stacks are mutually exclusive: "
                "the first searches every cut subset, the second a fixed "
                "candidate list"
            )
        if args.fuse_depths != (None,):
            raise SystemExit(
                "--fuse-depths and partition genes are mutually "
                "exclusive: the partition axis replaces the fuse-depth cap"
            )
        names = (
            workload.workload_names()
            if isinstance(workload, Scenario)
            else (workload,)
        )
        # The genome is sized for the largest member; smaller members
        # ignore out-of-range cuts when their partitions decode.  The
        # tables also feed the runner, which decodes genomes per member.
        tables = {name: workload_segments(name) for name in names}
        member_segments = tuple(tables[name] for name in names)
        segments = max(len(table) for table in tables.values())
        try:
            if args.stacks is not None:
                partitions = PartitionAxis(
                    segments=segments, candidates=args.stacks
                )
            else:
                partitions = PartitionAxis(segments=segments)
        except ValueError as exc:
            raise SystemExit(str(exc))
        print(
            "partition genes: "
            + ", ".join(
                f"{name}: {len(table)} segments"
                for name, table in tables.items()
            )
            + f"; axis = {partitions.describe()}"
        )

    try:
        space = DesignSpace(
            accelerators=accelerators,
            tile_x=args.tilex,
            tile_y=args.tiley,
            modes=args.modes,
            fuse_depths=args.fuse_depths,
            partitions=partitions,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    reference = None
    if args.reference is not None:
        try:
            reference = load_reference_frontier(args.reference)
        except ValueError as exc:
            raise SystemExit(str(exc))

    config = SearchConfig(
        lpf_limit=args.lpf_limit, budget=args.budget, engine=args.engine
    )
    workload_label = (
        workload.describe() if isinstance(workload, Scenario) else workload
    )
    handle = _begin_ledger(
        "dse",
        argv,
        args,
        workload=workload_label,
        accelerators=list(accelerators),
        accelerator_fingerprints={
            name: get_accelerator(name).fingerprint()
            for name in accelerators
        },
        strategy=args.strategy,
        objectives=list(args.objectives),
        max_evals=args.max_evals,
        checkpoint=args.checkpoint,
    )
    _setup_obs(args)
    try:
        cache = _resolve_cache(args)
        strategy = create_strategy(
            args.strategy,
            population=args.population,
            generations=args.generations,
            samples=args.samples,
        )
        try:
            with obs.span(
                "repro.dse", strategy=args.strategy, seed=args.seed
            ), Executor(
                jobs=args.jobs,
                search_config=config,
                cache=cache,
            ) as executor:
                runner = DSERunner(
                    space,
                    workload,
                    objectives=args.objectives,
                    executor=executor,
                    constraints=constraints,
                    max_evals=args.max_evals,
                    checkpoint=args.checkpoint,
                    reference=reference,
                    member_segments=member_segments,
                    seed=args.seed,
                )
                result = runner.run(strategy)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc

        print(
            f"dse: {workload_label}, strategy={args.strategy}, "
            f"seed={args.seed}, space={space.size} designs, "
            f"objectives={','.join(args.objectives)}"
        )
        if constraints:
            print(
                "constraints: "
                + "; ".join(c.describe() for c in constraints)
            )
        print(result.describe())
        print(frontier_table(result.frontier))
        print()
        print(convergence_table(result.generations))
        if args.show_infeasible:
            print()
            print("infeasible designs (total relative violation):")
            print(
                infeasible_table(
                    result.infeasible, result.frontier.objectives
                )
            )

        if args.csv:
            with open(args.csv, "w") as f:
                f.write(frontier_csv(result.frontier))
            print(f"wrote {args.csv}")
        if args.plot:
            from .analysis import plot_dse_summary

            written = plot_dse_summary(
                result.frontier, result.generations, args.plot
            )
            if written is None:
                print(
                    f"matplotlib is not installed; skipping --plot {args.plot}"
                )
            else:
                print(f"wrote {written}")
        if args.output:
            summary = {
                "workload": workload_label,
                "accelerators": list(accelerators),
                "objectives": list(args.objectives),
                "constraints": [c.token() for c in constraints],
                "strategy": args.strategy,
                "seed": args.seed,
                "evaluations": result.evaluations,
                "total_evaluations": result.total_evaluations,
                "generations": [s.to_json() for s in result.generations],
                "hv_reference": (
                    None
                    if result.hv_reference is None
                    else list(result.hv_reference)
                ),
                "frontier": result.frontier.to_json(),
                "infeasible": [e.to_json() for e in result.infeasible],
            }
            with open(args.output, "w") as f:
                json.dump(summary, f, indent=2)
            print(f"wrote {args.output}")
        _finish_cache(args, cache)
    except BaseException as exc:
        _ledger_crash(handle, exc)
        _finish_obs(args)
        raise
    last = result.generations[-1] if result.generations else None
    # Seal the record before _finish_obs resets the metrics registry.
    _ledger_finish(
        handle,
        "ok",
        result={
            "evaluations": result.total_evaluations,
            "frontier_size": len(result.frontier),
            "hypervolume": last.hypervolume if last else None,
            "epsilon": last.epsilon if last else None,
        },
    )
    _finish_obs(args)
    return 0


# ----------------------------------------------------------------------
# repro serve — standalone live cache server
# ----------------------------------------------------------------------
def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run a standalone live mapping-cache server: point "
        "any evaluation at it with --cache-server HOST:PORT and all "
        "workers (across processes and machines) share LOMA search "
        "results while runs are in flight.",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: loopback only)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port; 0 picks a free port (printed on startup)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        help="persistent mapping-cache JSON file: pre-loaded on start, "
        "snapshotted periodically and on shutdown (atomic, merge-on-"
        "save, unchanged cache format)",
    )
    parser.add_argument(
        "--snapshot-interval",
        type=_positive_float,
        default=30.0,
        metavar="SECONDS",
        help="seconds between periodic snapshots (needs --cache)",
    )
    parser.add_argument(
        "--max-entries",
        type=_positive_int,
        default=None,
        help="LRU capacity bound applied at snapshot time",
    )
    parser.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="exit after this many seconds (default: serve until "
        "interrupted); used by smoke tests and batch jobs",
    )
    parser.add_argument(
        "--auth-token",
        default=os.environ.get(AUTH_TOKEN_ENV),
        metavar="TOKEN",
        help="shared-secret token every request must carry (clients "
        f"pass CacheClient(token=...) or set ${AUTH_TOKEN_ENV}, which "
        "is also this flag's default); omit for an open server",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve HTTP GET /metrics (Prometheus text exposition) "
        "and /healthz on this port; 0 picks a free port (printed on "
        "startup); exposes aggregate numbers only and is deliberately "
        "not behind --auth-token, so scrapers never hold the secret",
    )
    return parser


def run_serve(argv: Sequence[str]) -> int:
    import threading

    args = build_serve_parser().parse_args(argv)
    cache = MappingCache(args.cache, max_entries=args.max_entries)
    server = CacheServer(
        cache=cache,
        host=args.host,
        port=args.port,
        snapshot_path=args.cache,
        snapshot_interval=args.snapshot_interval if args.cache else None,
        auth_token=args.auth_token,
        metrics_port=args.metrics_port,
    )
    server.start()
    # The address line is the startup contract: wrappers parse it to
    # learn the picked port, so print and flush it first.
    print(f"cache server listening on {server.describe()}", flush=True)
    if server.metrics_address is not None:
        host, port = server.metrics_address
        print(f"metrics endpoint on http://{host}:{port}/metrics", flush=True)
    if args.auth_token is not None:
        print("authentication: shared-secret token required", flush=True)
    print(
        f"{len(cache)} entr{'y' if len(cache) == 1 else 'ies'} loaded"
        + (f" from {args.cache}" if args.cache else ""),
        flush=True,
    )
    try:
        # Serve until the timeout elapses, the server is shut down
        # remotely (a client's 'shutdown' op), or Ctrl-C.
        deadline = threading.Event()
        step = 0.2
        waited = 0.0
        while server.running and not deadline.wait(step):
            waited += step
            if args.timeout is not None and waited >= args.timeout:
                break
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.stop()
    stats = dict(cache.stats)
    print(f"cache server stopped: {stats}")
    if args.cache:
        print(f"final snapshot: {args.cache}")
    return 0


# ----------------------------------------------------------------------
# repro cache-info — mapping-cache file inspection
# ----------------------------------------------------------------------
def build_cache_info_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cache-info",
        description="Inspect a persistent mapping-cache JSON file, or a "
        "live cache server's table and load counters.",
    )
    parser.add_argument(
        "path", nargs="?", default=None, help="mapping-cache file to inspect"
    )
    parser.add_argument(
        "--cache-server",
        default=None,
        metavar="HOST:PORT",
        help="query a live 'repro serve' instance (hits, misses, size, "
        "per-op requests, connections, in-flight, queue depth) instead "
        "of reading a file",
    )
    return parser


def run_cache_info(argv: Sequence[str]) -> int:
    args = build_cache_info_parser().parse_args(argv)
    if args.cache_server is not None and args.path is not None:
        raise SystemExit(
            "give either a cache file path or --cache-server, not both"
        )
    if args.cache_server is not None:
        try:
            with CacheClient(args.cache_server) as client:
                stats = client.server_stats()
        except (ValueError, CacheServerError) as exc:
            raise SystemExit(str(exc))
        print(f"server:      {args.cache_server}")
        print(f"size:        {stats.get('size', 0)} entries")
        print(
            f"table:       {stats.get('hits', 0)} hits / "
            f"{stats.get('misses', 0)} misses"
        )
        requests = stats.get("requests", {})
        if requests:
            ops = ", ".join(f"{op}={n}" for op, n in sorted(requests.items()))
            print(f"requests:    {ops}")
        print(
            f"connections: {stats.get('connections', 0)} open "
            f"({stats.get('connections_total', 0)} total)"
        )
        print(
            f"load:        {stats.get('in_flight', 0)} in flight, "
            f"{stats.get('queue_depth', 0)} queued"
        )
        print(f"snapshots:   {stats.get('snapshots_written', 0)} written")
        return 0
    if args.path is None:
        raise SystemExit("give a cache file path (or --cache-server HOST:PORT)")
    info = cache_file_info(args.path)
    print(f"path:    {info['path']}")
    print(f"status:  {info['status']}")
    if info["status"] == "missing":
        return 1
    print(f"size:    {info['size_bytes']} bytes")
    print(f"format:  {info['format']}")
    print(f"entries: {info['entries']}")
    stats = info["stats"]
    if stats:
        print(
            f"stats:   {stats.get('hits', 0)} hits / "
            f"{stats.get('misses', 0)} misses at last save"
        )
    # Only a loadable file exits 0, so scripts can gate on the status.
    return 0 if info["status"] == "ok" else 1


# ----------------------------------------------------------------------
# repro stats — telemetry artifact inspection
# ----------------------------------------------------------------------
def build_stats_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro stats",
        description="Inspect telemetry artifacts written by --trace and "
        "--metrics: JSON-lines traces (top spans by self time, wall-"
        "clock coverage) and Prometheus text / metrics JSON snapshots "
        "(cache hit rates, top counters).",
    )
    parser.add_argument(
        "paths",
        nargs="+",
        metavar="FILE",
        help="trace (.jsonl), Prometheus text (.prom) or metrics JSON file",
    )
    parser.add_argument(
        "--top",
        type=_positive_int,
        default=10,
        help="rows shown per table (default: 10)",
    )
    return parser


def _stats_report(path: str, top: int) -> str:
    """The report for one telemetry file, whatever its format: a metrics
    JSON dump (one object), a JSON-lines trace, or Prometheus text.

    Robust against the artifacts a crashed run leaves behind: a missing
    or empty file and a trace cut mid-line all produce a clear message
    (plus a best-effort report for the partial trace), never a
    traceback."""
    from .obs import MetricsRegistry, load_trace_tolerant

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SystemExit(str(exc))
    if not text.strip():
        raise SystemExit(
            f"{path}: empty telemetry file — the run likely crashed (or "
            "was killed) before writing anything"
        )
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, dict) and "metrics" in data:
        registry = MetricsRegistry()
        try:
            registry.merge_json(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise SystemExit(f"{path}: not a metrics dump: {exc}")
        return metrics_report(
            parse_prometheus(registry.render_prometheus()), top=top
        )
    records, problems = load_trace_tolerant(path)
    if records:
        report = trace_report(records, top=top)
        if problems:
            report += (
                f"\nwarning: skipped {len(problems)} malformed line(s) — "
                f"truncated by a crashed run? (first: {problems[0]})"
            )
        return report
    values = parse_prometheus(text)
    if values:
        return metrics_report(values, top=top)
    raise SystemExit(
        f"{path}: not a recognizable telemetry file (expected a "
        "JSON-lines trace, a Prometheus text exposition, or a metrics "
        "JSON dump)"
        + (
            f"; {len(problems)} unparseable line(s) suggest a truncated "
            "or corrupted trace"
            if problems
            else ""
        )
    )


def run_stats(argv: Sequence[str]) -> int:
    args = build_stats_parser().parse_args(argv)
    for index, path in enumerate(args.paths):
        if len(args.paths) > 1:
            if index:
                print()
            print(f"== {path} ==")
        print(_stats_report(path, args.top))
    return 0


# ----------------------------------------------------------------------
# repro runs — the durable run ledger
# ----------------------------------------------------------------------
def _add_runs_dir_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--runs-dir",
        default=None,
        metavar="DIR",
        help="ledger directory (default: $REPRO_RUNS_DIR, else .repro/runs)",
    )


def build_runs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro runs",
        description="Inspect the run ledger: every 'repro evaluate' and "
        "'repro dse' invocation leaves a durable record under "
        ".repro/runs/ (manifest, wall-clock, final metrics, convergence "
        "series, outcome — crashed runs included).",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    p_list = sub.add_parser("list", help="list recorded runs, newest last")
    _add_runs_dir_option(p_list)
    p_list.add_argument(
        "-n",
        "--limit",
        type=_positive_int,
        default=20,
        help="most recent runs shown (default: 20)",
    )
    p_list.set_defaults(func=_runs_list)

    p_show = sub.add_parser("show", help="render one run's record")
    _add_runs_dir_option(p_show)
    p_show.add_argument(
        "run",
        nargs="?",
        default="latest",
        help="run reference: 'latest' (default), an id, a unique id "
        "prefix, or a record-file path",
    )
    p_show.add_argument(
        "--tail",
        type=_positive_int,
        default=5,
        help="convergence generations shown (default: 5)",
    )
    p_show.set_defaults(func=_runs_show)

    p_diff = sub.add_parser(
        "diff", help="compare two runs' key metrics side by side"
    )
    _add_runs_dir_option(p_diff)
    p_diff.add_argument("baseline", help="baseline run reference")
    p_diff.add_argument(
        "run",
        nargs="?",
        default="latest",
        help="run to compare (default: latest)",
    )
    p_diff.set_defaults(func=_runs_diff)

    p_gc = sub.add_parser(
        "gc", help="drop the oldest records beyond a keep count"
    )
    _add_runs_dir_option(p_gc)
    p_gc.add_argument(
        "--keep",
        type=int,
        default=20,
        help="newest records kept (default: 20)",
    )
    p_gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without removing it",
    )
    p_gc.set_defaults(func=_runs_gc)

    p_regress = sub.add_parser(
        "regress",
        help="gate a run against a baseline: exits 1 on any regression",
    )
    _add_runs_dir_option(p_regress)
    p_regress.add_argument(
        "--baseline",
        required=True,
        metavar="REF",
        help="baseline run reference (id, unique prefix, or record-file "
        "path — e.g. a committed fixture)",
    )
    p_regress.add_argument(
        "run",
        nargs="?",
        default="latest",
        help="run to gate (default: latest)",
    )
    p_regress.add_argument(
        "--max-slowdown",
        type=_loss_fraction,
        default=regress.DEFAULT_MAX_SLOWDOWN,
        metavar="FRACTION",
        help="tolerated relative throughput loss (orderings/s, bench "
        f"points; default {regress.DEFAULT_MAX_SLOWDOWN} — generous, "
        "baselines travel across machines)",
    )
    p_regress.add_argument(
        "--max-hv-loss",
        type=_loss_fraction,
        default=regress.DEFAULT_MAX_HV_LOSS,
        metavar="FRACTION",
        help="tolerated relative hypervolume loss at a fixed eval "
        f"budget (default {regress.DEFAULT_MAX_HV_LOSS} — the search "
        "is deterministic per seed)",
    )
    p_regress.add_argument(
        "--max-hit-rate-drop",
        type=_loss_fraction,
        default=regress.DEFAULT_MAX_HIT_RATE_DROP,
        metavar="FRACTION",
        help="tolerated absolute mapping-cache hit-rate drop "
        f"(default {regress.DEFAULT_MAX_HIT_RATE_DROP})",
    )
    p_regress.add_argument(
        "--bench",
        default=None,
        metavar="BENCH.json",
        help="also gate a BENCH_loma.json-shaped throughput file "
        "against --bench-baseline",
    )
    p_regress.add_argument(
        "--bench-baseline",
        default="BENCH_loma.json",
        metavar="BENCH.json",
        help="baseline bench file for --bench (default: the repo's "
        "blessed BENCH_loma.json)",
    )
    p_regress.set_defaults(func=_runs_regress)
    return parser


def _runs_list(args) -> int:
    print(runs_table(ledger.list_runs(args.runs_dir), limit=args.limit))
    return 0


def _load_run_or_exit(ref: str, runs_dir) -> dict:
    try:
        return ledger.load_run(ref, runs_dir)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc))


def _runs_show(args) -> int:
    print(run_report(_load_run_or_exit(args.run, args.runs_dir), tail=args.tail))
    return 0


def _runs_diff(args) -> int:
    baseline = _load_run_or_exit(args.baseline, args.runs_dir)
    current = _load_run_or_exit(args.run, args.runs_dir)
    print(run_diff_report(baseline, current))
    return 0


def _runs_gc(args) -> int:
    if args.keep < 0:
        raise SystemExit(f"--keep must be >= 0, got {args.keep}")
    removed = ledger.gc_runs(
        args.runs_dir, keep=args.keep, dry_run=args.dry_run
    )
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"{verb} {len(removed)} run record(s), "
        f"keeping the newest {args.keep}"
    )
    for run_id in removed:
        print(f"  {run_id}")
    return 0


def _runs_regress(args) -> int:
    baseline = _load_run_or_exit(args.baseline, args.runs_dir)
    current = _load_run_or_exit(args.run, args.runs_dir)
    checks = regress.compare_runs(
        baseline,
        current,
        max_slowdown=args.max_slowdown,
        max_hv_loss=args.max_hv_loss,
        max_hit_rate_drop=args.max_hit_rate_drop,
    )
    if args.bench is not None:
        try:
            checks += regress.compare_bench(
                regress.load_bench(args.bench_baseline),
                regress.load_bench(args.bench),
                max_slowdown=args.max_slowdown,
            )
        except (OSError, ValueError) as exc:
            raise SystemExit(str(exc))
    print(regress_report(checks))
    return 1 if regress.has_regressions(checks) else 0


def run_runs(argv: Sequence[str]) -> int:
    args = build_runs_parser().parse_args(argv)
    return args.func(args)


# ----------------------------------------------------------------------
# repro top — live fleet monitoring
# ----------------------------------------------------------------------
def build_top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro top",
        description="Live view of a cache-server fleet: polls the "
        "server's stats wire op and renders a refreshing "
        "terminal frame (entries, hit rate, connections, in-flight, "
        "queue depth, request and evaluation rates).",
    )
    parser.add_argument(
        "address", metavar="HOST:PORT", help="a running 'repro serve'"
    )
    parser.add_argument(
        "--interval",
        type=_positive_float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between refreshes (default: 2)",
    )
    parser.add_argument(
        "--iterations",
        type=_positive_int,
        default=None,
        metavar="N",
        help="stop after N frames (default: run until Ctrl-C)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="print a single frame and exit (same as --iterations 1)",
    )
    parser.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen (useful for "
        "logs and pipes; clearing is skipped automatically when stdout "
        "is not a terminal)",
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        metavar="TOKEN",
        help="shared-secret token for an authenticated server "
        f"(default: ${AUTH_TOKEN_ENV})",
    )
    return parser


def run_top(argv: Sequence[str]) -> int:
    args = build_top_parser().parse_args(argv)
    iterations = 1 if args.once else args.iterations
    try:
        client = CacheClient(args.address, token=args.auth_token)
    except (ValueError, CacheServerError) as exc:
        raise SystemExit(str(exc))
    clear = sys.stdout.isatty() and not args.no_clear
    previous = None
    frames = 0
    try:
        while True:
            try:
                current = obs_top.sample_server(client)
            except CacheServerError as exc:
                raise SystemExit(f"server went away: {exc}")
            frame = obs_top.top_report(args.address, current, previous)
            if clear:
                print("\x1b[2J\x1b[H", end="")
            print(frame, end="", flush=True)
            previous = current
            frames += 1
            if iterations is not None and frames >= iterations:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        client.close()
    return 0


# ----------------------------------------------------------------------
SUBCOMMANDS = {
    "dse": run_dse,
    "serve": run_serve,
    "cache-info": run_cache_info,
    "stats": run_stats,
    "runs": run_runs,
    "top": run_top,
    "check": run_check,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    return run_evaluate(argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
