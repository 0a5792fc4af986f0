"""DET0xx — determinism lints for the result-producing packages.

The exploration stack's core promise is bit-identity: the same inputs
produce the same results serial or pooled, whatever the worker count
or host.
These rules keep nondeterminism out of the packages that *compute*
results:

* **DET001** — wall-clock reads (``time.time()``, ``datetime.now()``,
  ...).  Timestamps in cost-affecting code make results depend on when
  they ran; telemetry uses ``time.monotonic()`` *durations*, which are
  never fed into results and stay allowed.
* **DET002** — module-level RNG draws (``random.random()``,
  ``np.random.rand()``, ...).  Global RNG state is shared across the
  process and reseeded by whoever got there first; all randomness must
  flow through a seeded instance (``random.Random(seed)``) threaded
  through call sites.
* **DET003** — unseeded RNG construction (``random.Random()``,
  ``np.random.default_rng()`` with no arguments): seeds the instance
  from the OS, so two runs diverge by design.
* **DET004** — iteration over an unordered set (``for x in {...}``,
  ``list(set(...))``).  Set iteration order depends on
  ``PYTHONHASHSEED`` for strings, so any result built by walking a set
  differs across processes; wrap the set in ``sorted(...)`` instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from . import astutil
from .context import CheckContext, SourceFile
from .findings import Finding
from .registry import rule

#: Packages (relative to the checked root) these rules police.
DETERMINISM_DIRS = (
    "src/repro/mapping",
    "src/repro/dse",
    "src/repro/explore",
)

#: Dotted call names that read the wall clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "date.today",
    }
)

#: ``random.X`` attributes that are *not* module-level draws.
RANDOM_NON_DRAWS = frozenset({"Random", "SystemRandom"})

#: ``numpy.random`` constructors that take a seed as first argument.
NUMPY_RNG_CONSTRUCTORS = frozenset({"default_rng", "RandomState", "Generator"})

#: Callables whose argument's iteration order reaches the caller.
ORDER_SENSITIVE_CONSUMERS = frozenset({"list", "tuple", "iter", "enumerate"})


def _det_files(ctx: CheckContext) -> list[SourceFile]:
    return ctx.python_files(*DETERMINISM_DIRS)


def _is_set_expr(node: ast.AST) -> bool:
    """True for expressions that are definitely an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = astutil.call_name(node)
        if name in ("set", "frozenset"):
            return True
    return False


@rule(
    "DET001",
    "wall-clock read",
    "No time.time()/datetime.now()-style wall-clock reads inside "
    "mapping/, dse/ or explore/ (results must not depend on when they "
    "ran; monotonic durations for telemetry are fine).",
)
def check_wall_clock(ctx: CheckContext) -> Iterator[Finding]:
    for file in _det_files(ctx):
        assert file.tree is not None
        for node in astutil.walk_with_parents(file.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = astutil.dotted_name(node.func)
            if dotted in WALL_CLOCK_CALLS:
                yield Finding(
                    file=file.rel,
                    line=node.lineno,
                    code="DET001",
                    message=f"wall-clock read {dotted}() in a "
                    "determinism-scoped package; results must not depend "
                    "on the time of the run",
                )


@rule(
    "DET002",
    "module-level RNG draw",
    "No random.*/np.random.* module-level draws inside mapping/, dse/ "
    "or explore/; randomness must flow through a seeded "
    "random.Random(seed) instance threaded through call sites.",
)
def check_global_rng(ctx: CheckContext) -> Iterator[Finding]:
    for file in _det_files(ctx):
        assert file.tree is not None
        for node in astutil.walk_with_parents(file.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = astutil.dotted_name(node.func)
            if dotted is None or "." not in dotted:
                continue
            head, _, tail = dotted.partition(".")
            if head == "random" and tail not in RANDOM_NON_DRAWS:
                yield Finding(
                    file=file.rel,
                    line=node.lineno,
                    code="DET002",
                    message=f"module-level RNG draw {dotted}(); thread a "
                    "seeded random.Random(seed) instance instead",
                )
            elif head in ("np", "numpy") and tail.startswith("random."):
                fn = tail.removeprefix("random.")
                if fn not in NUMPY_RNG_CONSTRUCTORS:
                    yield Finding(
                        file=file.rel,
                        line=node.lineno,
                        code="DET002",
                        message=f"module-level RNG draw {dotted}(); use a "
                        "seeded numpy Generator instance instead",
                    )


@rule(
    "DET003",
    "unseeded RNG",
    "RNG instances inside mapping/, dse/ or explore/ must be "
    "constructed with an explicit seed (random.Random() and "
    "np.random.default_rng() without arguments seed from the OS).",
)
def check_unseeded_rng(ctx: CheckContext) -> Iterator[Finding]:
    for file in _det_files(ctx):
        assert file.tree is not None
        for node in astutil.walk_with_parents(file.tree):
            if not isinstance(node, ast.Call) or node.args or node.keywords:
                continue
            dotted = astutil.dotted_name(node.func)
            if dotted is None:
                continue
            unseeded = dotted in ("random.Random", "Random") or (
                dotted.partition(".")[0] in ("np", "numpy")
                and dotted.endswith(
                    ("random.default_rng", "random.RandomState")
                )
            )
            if unseeded:
                yield Finding(
                    file=file.rel,
                    line=node.lineno,
                    code="DET003",
                    message=f"unseeded RNG {dotted}(); pass an explicit "
                    "seed so runs are reproducible",
                )


@rule(
    "DET004",
    "unordered set iteration",
    "No iterating over a set expression inside mapping/, dse/ or "
    "explore/ (set order varies with PYTHONHASHSEED across processes); "
    "wrap the set in sorted(...).",
)
def check_set_iteration(ctx: CheckContext) -> Iterator[Finding]:
    for file in _det_files(ctx):
        assert file.tree is not None
        for node in astutil.walk_with_parents(file.tree):
            iter_exprs: list[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_exprs.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iter_exprs.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call):
                name = astutil.call_name(node)
                if name in ORDER_SENSITIVE_CONSUMERS and node.args:
                    iter_exprs.append(node.args[0])
            for expr in iter_exprs:
                if _is_set_expr(expr):
                    yield Finding(
                        file=file.rel,
                        line=expr.lineno,
                        code="DET004",
                        message="iteration over an unordered set "
                        "expression; wrap it in sorted(...) so the order "
                        "is process-independent",
                    )
