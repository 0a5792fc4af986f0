"""End-to-end benchmark of the DeFiNES reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep_cold --seed 0 --seconds 10 --trace 0

Workloads (see README.md in this directory for the metric definitions and
the layer -> end-to-end map):

* ``sweep_cold``  — a seeded 108-point sample of the paper grid, evaluated
  one by one on engines sharing one initially empty mapping cache;
* ``sweep_warm``  — the same points with the cache pre-loaded from a file
  written by an untimed cold pass;
* ``dse_genetic`` — seeded NSGA-II searches over resnet18 on four
  accelerators, dispatched through ``Executor(jobs=2)``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the phase
untraced and then traced (same work) and prints per-layer metrics.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  All timings are host time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import universe as U

WORKLOADS = ("sweep_cold", "sweep_warm", "dse_genetic")
#: Fresh interpreters timed per run; set-up time is their median.
SETUP_REPEATS = 5
PROBE = Path(__file__).resolve().parent / "setup_probe.py"


def setup_probes(workload: str, cache_file: str | None) -> list[dict]:
    if workload == "dse_genetic":
        networks, accelerators = (U.DSE_WORKLOAD,), U.DSE_ACCELERATORS
    else:
        networks = tuple(n for n, _ in U.SWEEP_PAIRS)
        accelerators = tuple(a for _, a in U.SWEEP_PAIRS)
    command = [
        sys.executable, str(PROBE),
        "--workloads", ",".join(networks),
        "--accelerators", ",".join(accelerators),
    ]
    if cache_file is not None:
        command += ["--cache", cache_file]
    splits = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=120, cwd=U.ROOT
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        splits.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return splits


def median_of(splits: list[dict], key: str) -> float:
    return statistics.median(split[key] for split in splits)


def end_to_end(phase, splits) -> dict[str, float]:
    ms = sorted(t * 1e3 for t in phase.point_s)
    return {
        "setup_s": median_of(splits, "setup_s"),
        "points_per_s": phase.attempted / phase.wall_s,
        "point_ms_p50": statistics.median(ms),
        "point_ms_p90": statistics.quantiles(ms, n=10)[8],
        "peak_rss_mb": phase.peak_rss_mb,
    }


def setup_layers(splits) -> dict[str, float]:
    return {
        "setup.import_s": median_of(splits, "import_s"),
        "workloads.get_workload.s": median_of(splits, "workloads_s"),
        "workloads.get_workload.calls": splits[0]["workloads_calls"],
        "hardware.get_accelerator.s": median_of(splits, "accelerators_s"),
        "hardware.get_accelerator.calls": splits[0]["accelerators_calls"],
        "mapping.cache_load.s": median_of(splits, "cache_load_s"),
        "mapping.cache_load.calls": splits[0]["cache_load_calls"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        U.use_checkout_source()
    except U.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import layers
    import phases

    reference = U.Reference.load()
    with tempfile.TemporaryDirectory(dir=U.ROOT, prefix=".perfbench-") as scratch:
        cache_file = None
        if args.workload == "dse_genetic":
            def phase_fn(**kw):
                return phases.run_dse(args.seed, reference, args.seconds, **kw)
        else:
            cache = None
            if args.workload == "sweep_warm":
                cache_file = str(Path(scratch) / "cache.json")
                phases.write_warm_cache(args.seed, cache_file)
                cache = phases.MappingCache(cache_file)

            def phase_fn(**kw):
                return phases.run_sweep(args.seed, reference, args.seconds, cache, **kw)

        splits = setup_probes(args.workload, cache_file)
        if not args.trace:
            phase = phases.monitored(phase_fn)
            metrics = end_to_end(phase, splits)
            attempted, failed = phase.attempted, phase.failed
        else:
            plain = phase_fn()
            with layers.LayerTracer() as tracer:
                traced = phase_fn(units=plain.units)
            metrics, absent = tracer.metrics()
            metrics.update(setup_layers(splits))
            metrics["trace.overhead"] = traced.wall_s / plain.wall_s
            metrics["trace.coverage"] = tracer.self_time() / traced.wall_s
            metrics["trace.absent"] = len(absent)
            if absent:
                print(f"perfbench: absent layers: {', '.join(absent)}", file=sys.stderr)
            # Identity: tracing must not change a single simulated output.
            diverged = sum(a != b for a, b in zip(plain.outputs, traced.outputs))
            diverged += abs(len(plain.outputs) - len(traced.outputs))
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed + diverged
            phase = traced

    print(
        f"perfbench: {args.workload} seed={args.seed}: {phase.units} unit(s), "
        f"{len(phase.point_s)} latency samples, fail_ratio={failed / attempted:.4f}",
        file=sys.stderr,
    )
    units = metric_units()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def metric_units() -> dict[str, str]:
    """Unit of every metric, as declared in BENCHMARK.json."""
    spec = json.loads((U.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
