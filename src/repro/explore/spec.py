"""Declarative sweep specifications for the exploration runtime.

The paper's experiments are all grids of *independent* depth-first
evaluations: a tile-size/mode grid (case study 1), five strategies per
workload (case study 2), per-stack strategy searches (CS2's best
combination), and architecture x workload sweeps (case study 3).  This
module turns each of those shapes into an enumerable list of
:class:`EvalJob` so a single :class:`~repro.explore.executor.Executor`
can run any of them — serially or across worker processes — with
deterministic result ordering.

Workloads and accelerators may be referenced by zoo name (cheap to ship
to worker processes) or passed as objects (anything picklable works).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ..core.strategy import DFStrategy, OverlapMode, StackBoundary

if TYPE_CHECKING:
    from ..hardware.accelerator import Accelerator
    from ..workloads.graph import WorkloadGraph

#: Reference to a zoo entry (by name) or a concrete object.
AcceleratorRef = "str | Accelerator"
WorkloadRef = "str | WorkloadGraph"

#: All overlap-storing modes, in the paper's Fig. 12 order.
DEFAULT_MODES = tuple(OverlapMode)


@dataclass(frozen=True)
class EvalJob:
    """One independent evaluation of the cost model.

    ``kind`` selects the entry point: ``"schedule"`` evaluates the whole
    workload under ``strategy`` (returns a ``ScheduleResult``);
    ``"stack"`` evaluates a single fused-layer stack — identified by
    ``stack_layers`` with pinned boundary ``input_locations`` — and
    returns a ``StackResult`` (the per-stack combination search of case
    study 2).
    """

    accelerator: "str | Accelerator"
    workload: "str | WorkloadGraph"
    strategy: DFStrategy
    kind: str = "schedule"
    stack_layers: tuple[str, ...] = ()
    stack_index: int = 0
    input_locations: tuple[tuple[str, int], ...] = ()
    tag: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("schedule", "stack"):
            raise ValueError(f"unknown job kind {self.kind!r}")
        if self.kind == "stack" and not self.stack_layers:
            raise ValueError("stack jobs need stack_layers")

    @property
    def accelerator_name(self) -> str:
        accel = self.accelerator
        return accel if isinstance(accel, str) else accel.name

    @property
    def workload_name(self) -> str:
        wl = self.workload
        return wl if isinstance(wl, str) else wl.name

    def describe(self) -> str:
        base = (
            f"{self.workload_name} on {self.accelerator_name} "
            f"[{self.strategy.describe()}]"
        )
        if self.kind == "stack":
            base += f" stack#{self.stack_index}"
        return base


@dataclass(frozen=True)
class SweepSpec:
    """An ordered, enumerable collection of evaluation jobs.

    Job order is the specification's deterministic identity: executors
    must return results in exactly this order, serial or pooled.  Specs
    concatenate with ``+`` so heterogeneous experiments (e.g. CS3's LBL
    baselines plus DF grids) can run as one batch.
    """

    jobs: tuple[EvalJob, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[EvalJob]:
        return iter(self.jobs)

    def __add__(self, other: "SweepSpec") -> "SweepSpec":
        return SweepSpec(self.jobs + other.jobs)

    # ------------------------------------------------------------------
    # Constructors for the experiment shapes of the paper
    # ------------------------------------------------------------------
    @classmethod
    def tile_grid(
        cls,
        accelerator: "str | Accelerator",
        workload: "str | WorkloadGraph",
        tile_sizes: Iterable[tuple[int, int]],
        modes: Sequence[OverlapMode] = DEFAULT_MODES,
        tag: str = "",
    ) -> "SweepSpec":
        """The CS1 grid: every (mode, tile size) combination, mode-major
        (the classic ``sweep`` order, shared with the DSE exhaustive
        backend via :func:`~repro.core.optimizer.grid_strategies`)."""
        from ..core.optimizer import grid_strategies

        return cls(
            tuple(
                EvalJob(
                    accelerator=accelerator,
                    workload=workload,
                    strategy=strategy,
                    tag=tag,
                )
                for strategy in grid_strategies(tile_sizes, modes)
            )
        )

    @classmethod
    def strategies(
        cls,
        accelerator: "str | Accelerator",
        workload: "str | WorkloadGraph",
        strategies: Iterable[DFStrategy],
        tag: str = "",
    ) -> "SweepSpec":
        """An explicit strategy list for one workload."""
        return cls(
            tuple(
                EvalJob(
                    accelerator=accelerator,
                    workload=workload,
                    strategy=strategy,
                    tag=tag,
                )
                for strategy in strategies
            )
        )

    @classmethod
    def multi_workload(
        cls,
        accelerator: "str | Accelerator",
        workloads: Iterable["str | WorkloadGraph"],
        strategies: Sequence[DFStrategy],
    ) -> "SweepSpec":
        """CS2 shape: the same strategies across workloads, workload-major."""
        jobs: list[EvalJob] = []
        for workload in workloads:
            jobs.extend(
                cls.strategies(accelerator, workload, strategies).jobs
            )
        return cls(tuple(jobs))

    @classmethod
    def multi_architecture(
        cls,
        accelerators: Iterable["str | Accelerator"],
        workloads: Sequence["str | WorkloadGraph"],
        strategies: Sequence[DFStrategy],
    ) -> "SweepSpec":
        """CS3 shape: strategies x workloads per architecture,
        architecture-major."""
        jobs: list[EvalJob] = []
        for accelerator in accelerators:
            jobs.extend(
                cls.multi_workload(accelerator, workloads, strategies).jobs
            )
        return cls(tuple(jobs))

    @classmethod
    def per_stack(
        cls,
        accelerator: "str | Accelerator",
        workload: "str | WorkloadGraph",
        stacks: Sequence[tuple[str, ...]],
        tile_sizes: Iterable[tuple[int, int]],
        modes: Sequence[OverlapMode] = DEFAULT_MODES,
        input_locations: tuple[tuple[str, int], ...] = (),
        stack_boundary: StackBoundary = StackBoundary.LOWEST_FIT,
    ) -> "SweepSpec":
        """The per-stack combination search: every (mode, tile) strategy
        for every stack, stack-major.  ``stacks`` are tuples of layer
        names (as from ``Stack.layer_names``); ``input_locations`` pins
        the boundary feature-map placements shared by all jobs."""
        tiles = tuple(tile_sizes)
        return cls(
            tuple(
                EvalJob(
                    accelerator=accelerator,
                    workload=workload,
                    strategy=DFStrategy(
                        tile_x=tx,
                        tile_y=ty,
                        mode=mode,
                        stack_boundary=stack_boundary,
                    ),
                    kind="stack",
                    stack_layers=tuple(layer_names),
                    stack_index=index,
                    input_locations=input_locations,
                )
                for index, layer_names in enumerate(stacks)
                for mode in modes
                for tx, ty in tiles
            )
        )
