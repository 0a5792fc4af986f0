"""Workload universes, seeded generators and the committed reference table.

Nothing here imports ``repro``: the points a run evaluates are fixed by
the benchmark and the seed alone, and the program only ever receives the
generated points (sweeps) or search seeds (DSE).
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"

#: The paper artifact's fast-mode mapping search (as in bench_runtime.py).
LPF_LIMIT = 6
BUDGET = 200

#: Sweep universe: the paper tile grid x 3 overlap modes on three
#: (network, accelerator) pairs that stress different layer shapes.
SWEEP_PAIRS = (
    ("fsrcnn", "meta_proto_like_df"),
    ("resnet18", "depfin_like"),
    ("mobilenet_v1", "edge_tpu_like_df"),
)
TILE_X = (1, 4, 16, 60, 240, 960)
TILE_Y = (1, 4, 18, 72, 270, 540)
MODES = ("fully_recompute", "h_cached_v_recompute", "fully_cached")

#: DSE universe: resnet18 on four depth-first accelerators x the paper
#: tile grid x 3 modes x fuse depths.
DSE_WORKLOAD = "resnet18"
DSE_ACCELERATORS = (
    "meta_proto_like_df",
    "tpu_like_df",
    "edge_tpu_like_df",
    "depfin_like",
)
DSE_FUSE_DEPTHS = (None, 2)
DSE_OBJECTIVES = ("energy", "latency")
DSE_POPULATION = 24
DSE_GENERATIONS = 12
#: Worker processes of the DSE executor (default backend).
DSE_JOBS = 2


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` package to measure."""


def use_checkout_source() -> Path:
    """Put the checkout's ``src`` first on ``sys.path`` and return it.

    Raises :class:`MissingProgram` when the checkout has no program, so a
    run without one fails instead of measuring some other install.
    """
    import sys

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no repro package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return src


def sweep_key(network: str, accelerator: str, tx: int, ty: int, mode: str) -> str:
    return f"{network}@{accelerator}/{tx}x{ty}/{mode}"


def dse_key(accelerator: str, tx: int, ty: int, mode: str, fuse_depth) -> str:
    return f"{DSE_WORKLOAD}@{accelerator}/{tx}x{ty}/{mode}/fuse={fuse_depth}"


def sweep_universe() -> list[tuple[str, str, int, int, str]]:
    """All 324 sweep points, in grid order."""
    return [
        (network, accelerator, tx, ty, mode)
        for network, accelerator in SWEEP_PAIRS
        for tx in TILE_X
        for ty in TILE_Y
        for mode in MODES
    ]


def dse_universe() -> list[tuple[str, int, int, str, "int | None"]]:
    """All 864 points of the DSE design space, in grid order."""
    return [
        (accelerator, tx, ty, mode, fuse_depth)
        for accelerator in DSE_ACCELERATORS
        for tx in TILE_X
        for ty in TILE_Y
        for mode in MODES
        for fuse_depth in DSE_FUSE_DEPTHS
    ]


def sweep_points(seed: int, index: int = 0) -> list[tuple[str, str, int, int, str]]:
    """Sample ``index`` of run seed ``seed``: every (network, tile) cell of
    the grid once (108 points), in seeded order.

    The overlap mode of each cell follows a seeded Latin square, so every
    tile row and column of every network runs each mode exactly twice,
    and sample ``index`` shifts every mode by ``index``: samples 0, 1 and
    2 of a seed together cover the universe exactly once.  Stratifying on
    tiles and modes keeps the mix of cheap and expensive points the same
    for every seed: seeds differ in which points run and in what order,
    hardly in how much work they are.
    """
    rng = random.Random(f"sweep:{seed}")
    points = []
    for network, accelerator in SWEEP_PAIRS:
        rows = [i % len(MODES) for i in range(len(TILE_X))]
        cols = [j % len(MODES) for j in range(len(TILE_Y))]
        rng.shuffle(rows)
        rng.shuffle(cols)
        for i, tx in enumerate(TILE_X):
            for j, ty in enumerate(TILE_Y):
                mode = MODES[(rows[i] + cols[j] + index) % len(MODES)]
                points.append((network, accelerator, tx, ty, mode))
    random.Random(f"sweep:{seed}:{index}").shuffle(points)
    return points


def dse_search_seeds(seed: int) -> Iterator[int]:
    """The genetic-search seeds of run seed ``seed``, one per search."""
    rng = random.Random(f"dse:{seed}")
    while True:
        yield rng.randrange(2**31)


class Reference:
    """Exact ``(energy_pj, latency_cycles)`` for every universe point, in
    two tables keyed by :func:`sweep_key` and :func:`dse_key`."""

    def __init__(self, sweep: dict, dse: dict) -> None:
        self.sweep = sweep
        self.dse = dse

    @classmethod
    def load(cls, path: Path = REFERENCE_PATH) -> "Reference":
        data = json.loads(Path(path).read_text())
        return cls(
            {k: tuple(v) for k, v in data["sweep"].items()},
            {k: tuple(v) for k, v in data["dse"].items()},
        )
