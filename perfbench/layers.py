"""Per-layer attribution for the traced run, from the benchmark's side.

:class:`LayerTracer` wraps public functions and methods of the program's
modules at every place they are bound (module globals that imported them
by name, or the class that defines a method), records calls, inclusive
time and self time (inclusive time minus the time of wrapped callees),
and restores the originals on exit.  Wrappers pass arguments, results
and exceptions through untouched, so traced outputs equal untraced ones.
A name a refactor removed or moved is reported as absent, never raised.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

#: (metric prefix, defining module, attribute path) of every wrapped
#: layer boundary of the measured phase.
LAYERS = (
    ("core.evaluate", "repro.core.scheduler", "DepthFirstEngine.evaluate"),
    ("core.partition_stacks", "repro.core.stacks", "partition_stacks"),
    ("core.backcalculate", "repro.core.backcalc", "backcalculate"),
    ("core.plan_tile_memory", "repro.core.memlevels", "plan_tile_memory"),
    ("core.copy_cost", "repro.core.datacopy", "copy_cost"),
    ("mapping.search", "repro.mapping.loma", "MappingSearchEngine.search"),
    ("mapping.evaluate_candidates", "repro.mapping.batch", "evaluate_candidates"),
    ("mapping.cache_get", "repro.mapping.cache", "MappingCache.get"),
    ("mapping.cache_put", "repro.mapping.cache", "MappingCache.put"),
    ("explore.run", "repro.explore.executor", "Executor.run"),
    ("dse.run", "repro.dse.runner", "DSERunner.run"),
    ("dse.propose", "repro.dse.search", "GeneticSearch.propose"),
    ("dse.observe", "repro.dse.search", "GeneticSearch.observe"),
    ("dse.frontier_offer", "repro.dse.pareto", "ParetoFrontier.offer"),
    ("dse.hypervolume", "repro.dse.metrics", "hypervolume"),
)

#: Counts read off results: metric -> (layer, counter).
COUNTS = {
    "mapping.orderings": ("mapping.evaluate_candidates", "orderings"),
    "core.tile_types": ("core.backcalculate", "tile_types"),
}


def _count_orderings(stat, result) -> None:
    stat.counters["orderings"] = stat.counters.get("orderings", 0) + result.count


def _count_hits(stat, result) -> None:
    stat.counters["hits"] = stat.counters.get("hits", 0) + (result is not None)


def _count_tile_types(stat, result) -> None:
    stat.counters["tile_types"] = (
        stat.counters.get("tile_types", 0) + len(result.tile_types)
    )


#: Result hooks; a hook that fails marks its counter absent instead.
HOOKS = {
    "mapping.evaluate_candidates": _count_orderings,
    "mapping.cache_get": _count_hits,
    "core.backcalculate": _count_tile_types,
}


class LayerStat:
    __slots__ = ("calls", "s", "self_s", "counters", "broken")

    def __init__(self) -> None:
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.counters: dict[str, int] = {}
        self.broken = False


def resolve(module_name: str, path: str):
    """``(owner, attribute name, original)`` of a dotted attribute path,
    or ``None`` when the module or any part of the path is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # Patch the class that defines the method, not a subclass.
        for klass in owner.__mro__:
            if name in vars(klass):
                original = vars(klass)[name]
                return (klass, name, original) if callable(original) else None
        return None
    original = getattr(owner, name, None)
    return (owner, name, original) if callable(original) else None


class LayerTracer:
    """Context manager installing the wrappers of ``layers``."""

    def __init__(self, layers=LAYERS) -> None:
        self.layers = layers
        self.stats = {name: LayerStat() for name, _, _ in layers}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTracer":
        for name, module_name, path in self.layers:
            found = resolve(module_name, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(self.stats[name], original, HOOKS.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # A module function is also bound in every module that
            # imported it by name: rebind each such global.
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if (
                    namespace is not None
                    and getattr(module, "__name__", "").startswith("repro")
                ):
                    for key, value in list(namespace.items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, stat: LayerStat, fn, hook):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time spent in wrapped callees
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat.calls += 1
                stat.s += elapsed
                stat.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None and not stat.broken:
                try:
                    hook(stat, result)
                except Exception:
                    stat.broken = True
            return result

        return wrapper

    # ------------------------------------------------------------------
    def self_time(self) -> float:
        """Total self time of all wrapped layers (seconds)."""
        return sum(stat.self_s for stat in self.stats.values())

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics plus the names reported as absent (their
        value reads 0)."""
        out: dict[str, float] = {}
        absent = list(self.absent)
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.s"] = stat.s
            out[f"{name}.self_s"] = stat.self_s
        for metric, (layer, counter) in COUNTS.items():
            stat = self.stats[layer]
            if layer in self.absent or stat.broken:
                absent.append(metric)
            out[metric] = stat.counters.get(counter, 0)
        candidates = self.stats["mapping.evaluate_candidates"]
        out["mapping.orderings_per_s"] = (
            out["mapping.orderings"] / candidates.s if candidates.s else 0.0
        )
        if "mapping.orderings" in absent:
            absent.append("mapping.orderings_per_s")
        gets = self.stats["mapping.cache_get"]
        out["mapping.cache_hit_ratio"] = (
            gets.counters.get("hits", 0) / gets.calls if gets.calls else 0.0
        )
        if "mapping.cache_get" in self.absent or gets.broken:
            absent.append("mapping.cache_hit_ratio")
        return out, absent
