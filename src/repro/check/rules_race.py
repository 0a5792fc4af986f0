"""RACE0xx — guarded-by analysis for the shared-state classes.

The cache server (``CacheServer``) and the cache it fronts
(``MappingCache``) are touched by handler threads, snapshot threads and
the foreground loop at once.  Their concurrency contract is
documented *in the source* with trailing annotations on the ``__init__``
assignment of every shared mutable attribute::

    self.connections = 0  # guarded-by: _counter_lock

and these rules enforce the contract lexically:

* **RACE001** — an attribute annotated ``# guarded-by: <lock>`` is only
  mutated inside a ``with self.<lock>:`` block (outside ``__init__``).
* **RACE002** — every mutable shared attribute of the classes listed in
  :data:`REQUIRED_GUARDED_CLASSES` carries an annotation (mutable
  shared = assigned in ``__init__`` and mutated in some other method).
* **RACE003** — the lock-acquisition graph has no order inversion: if
  any code path acquires A then B, no path may acquire B then A
  (acquiring a non-reentrant lock while already holding it is the
  one-lock case of the same deadlock).

The special annotation ``# guarded-by: <owner>`` documents an attribute
that is externally synchronized — mutated only by a single owning
thread, or under a lock held by the *caller* (e.g. ``MappingCache``
behind ``CacheServer._lock``).  It satisfies RACE002 and is exempt from
RACE001's lexical check.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator

from . import astutil
from .context import CheckContext, SourceFile
from .findings import Finding
from .registry import rule

#: (file, class) pairs whose mutable shared attributes MUST be annotated.
REQUIRED_GUARDED_CLASSES = (
    ("src/repro/serve/cache_server.py", "CacheServer"),
    ("src/repro/mapping/cache.py", "MappingCache"),
)

#: Packages scanned for annotations and lock graphs.
RACE_DIRS = ("src/repro",)

#: The externally-synchronized annotation value.
OWNER = "<owner>"

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "discard",
        "add",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "sort",
        "reverse",
        "appendleft",
        "popleft",
    }
)

_ANNOTATION_RE = re.compile(r"#\s*guarded-by:\s*(<\w+>|\w+)")

#: ``threading`` constructors that create an exclusive lock.
_LOCK_CONSTRUCTORS = {
    "threading.Lock": False,
    "threading.RLock": True,
    "Lock": False,
    "RLock": True,
}

#: Constructors of objects that are thread-safe by design; attributes
#: holding one need no guarded-by annotation (the primitive *is* the
#: synchronization).
_SYNC_CONSTRUCTORS = frozenset(
    {
        "threading.Event",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Condition",
        "threading.Barrier",
        "Event",
        "Semaphore",
        "BoundedSemaphore",
        "Condition",
        "Barrier",
        "queue.Queue",
        "Queue",
    }
)


@dataclass
class ClassContract:
    """One class's annotated attributes and lock inventory."""

    file: SourceFile
    node: ast.ClassDef
    #: attr -> lock name (or ``OWNER``) from guarded-by annotations.
    guarded: dict[str, str] = field(default_factory=dict)
    #: attrs assigned in ``__init__``.
    init_attrs: dict[str, int] = field(default_factory=dict)
    #: lock attr -> reentrant?
    locks: dict[str, bool] = field(default_factory=dict)
    #: attrs holding a thread-safe primitive (Event, Semaphore, ...).
    sync_attrs: set[str] = field(default_factory=set)


def _annotations_by_line(file: SourceFile) -> dict[int, str]:
    found: dict[int, str] = {}
    for index, line in enumerate(file.lines, start=1):
        match = _ANNOTATION_RE.search(line)
        if match:
            found[index] = match.group(1)
    return found


def _init_method(node: ast.ClassDef) -> ast.FunctionDef | None:
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            return item
    return None


def _collect_contract(file: SourceFile, node: ast.ClassDef) -> ClassContract:
    contract = ClassContract(file=file, node=node)
    annotations = _annotations_by_line(file)
    init = _init_method(node)
    if init is None:
        return contract
    for stmt in ast.walk(init):
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                attr = astutil.self_attribute(target)
                if attr is None:
                    continue
                contract.init_attrs.setdefault(attr, stmt.lineno)
                for line in range(stmt.lineno, (stmt.end_lineno or stmt.lineno) + 1):
                    if line in annotations:
                        contract.guarded[attr] = annotations[line]
                        break
                value = stmt.value
                if value is None:
                    continue
                # The value may be wrapped (e.g. a conditional
                # expression); any lock/sync constructor inside it
                # classifies the attribute.
                for call in ast.walk(value):
                    if not isinstance(call, ast.Call):
                        continue
                    dotted = astutil.dotted_name(call.func)
                    if dotted in _LOCK_CONSTRUCTORS:
                        contract.locks[attr] = _LOCK_CONSTRUCTORS[dotted]
                    elif dotted in _SYNC_CONSTRUCTORS:
                        contract.sync_attrs.add(attr)
    return contract


def _mutated_self_attrs(node: ast.AST) -> Iterator[tuple[str, ast.AST]]:
    """``(attr, node)`` for every ``self.<attr>`` mutation in the node:
    assignment, augmented assignment, deletion, item assignment and
    in-place mutator method calls."""
    for child in ast.walk(node):
        targets: list[ast.expr] = []
        if isinstance(child, ast.Assign):
            targets = list(child.targets)
        elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
            targets = [child.target]
        elif isinstance(child, ast.Delete):
            targets = list(child.targets)
        for target in targets:
            flat: list[ast.expr] = (
                list(target.elts)
                if isinstance(target, (ast.Tuple, ast.List))
                else [target]
            )
            for element in flat:
                attr = astutil.self_attribute(element)
                if attr is not None:
                    yield attr, child
                    continue
                # self.x[...] = / del self.x[...] / self.x[...] += ...
                if isinstance(element, ast.Subscript):
                    attr = astutil.self_attribute(element.value)
                    if attr is not None:
                        yield attr, child
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            if child.func.attr in MUTATOR_METHODS:
                attr = astutil.self_attribute(child.func.value)
                if attr is not None:
                    yield attr, child


def _class_contracts(ctx: CheckContext) -> Iterator[ClassContract]:
    for file in ctx.python_files(*RACE_DIRS):
        assert file.tree is not None
        astutil.walk_with_parents(file.tree)
        for node in ast.walk(file.tree):
            if isinstance(node, ast.ClassDef):
                yield _collect_contract(file, node)


def _methods(node: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name != "__init__":
            yield item


@rule(
    "RACE001",
    "unguarded mutation",
    "An attribute annotated '# guarded-by: <lock>' may only be mutated "
    "inside a 'with self.<lock>:' block (outside __init__).",
)
def check_guarded_mutations(ctx: CheckContext) -> Iterator[Finding]:
    for contract in _class_contracts(ctx):
        enforced = {
            attr: lock
            for attr, lock in contract.guarded.items()
            if lock != OWNER
        }
        if not enforced:
            continue
        for method in _methods(contract.node):
            for attr, site in _mutated_self_attrs(method):
                lock = enforced.get(attr)
                if lock is None:
                    continue
                if lock not in astutil.held_locks(site):
                    yield Finding(
                        file=contract.file.rel,
                        line=site.lineno,
                        code="RACE001",
                        message=f"{contract.node.name}.{attr} is "
                        f"guarded-by {lock} but {method.name}() mutates "
                        f"it outside 'with self.{lock}'",
                    )


@rule(
    "RACE002",
    "missing guarded-by annotation",
    "Every mutable shared attribute of CacheServer and "
    "MappingCache must carry a '# guarded-by:' annotation on its "
    "__init__ assignment ('<owner>' documents external "
    "synchronization).",
)
def check_annotation_coverage(ctx: CheckContext) -> Iterator[Finding]:
    required = set(REQUIRED_GUARDED_CLASSES)
    for contract in _class_contracts(ctx):
        if (contract.file.rel, contract.node.name) not in required:
            continue
        mutated: dict[str, int] = {}
        for method in _methods(contract.node):
            for attr, site in _mutated_self_attrs(method):
                if attr in contract.init_attrs:
                    mutated.setdefault(attr, site.lineno)
        for attr in sorted(mutated):
            if (
                attr in contract.guarded
                or attr in contract.locks
                or attr in contract.sync_attrs
            ):
                continue
            yield Finding(
                file=contract.file.rel,
                line=contract.init_attrs[attr],
                code="RACE002",
                message=f"mutable shared attribute "
                f"{contract.node.name}.{attr} has no guarded-by "
                "annotation; add '# guarded-by: <lock>' (or '<owner>' "
                "for externally synchronized state) on its __init__ "
                "assignment",
            )


def _direct_acquisitions(method: ast.FunctionDef, locks: set[str]) -> set[str]:
    acquired: set[str] = set()
    for node in ast.walk(method):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                name = astutil.self_attribute(item.context_expr)
                if name is not None and name in locks:
                    acquired.add(name)
    return acquired


def _called_self_methods(node: ast.AST) -> set[str]:
    called: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            if astutil.self_attribute(child.func) is not None:
                called.add(child.func.attr)
    return called


@rule(
    "RACE003",
    "lock-order inversion",
    "The per-class lock-acquisition graph (nested 'with self.<lock>' "
    "blocks, followed through same-class method calls) must be free of "
    "cycles; a non-reentrant lock must never be re-acquired while "
    "held.",
)
def check_lock_order(ctx: CheckContext) -> Iterator[Finding]:
    for contract in _class_contracts(ctx):
        if not contract.locks:
            continue
        lock_names = set(contract.locks)
        methods = {m.name: m for m in _methods(contract.node)}
        init = _init_method(contract.node)
        if init is not None:
            methods["__init__"] = init
        # Locks each method may acquire, transitively through direct
        # self.method() calls (fixpoint; the call graph is tiny).
        acquires = {
            name: _direct_acquisitions(method, lock_names)
            for name, method in methods.items()
        }
        calls = {
            name: _called_self_methods(method) & set(methods)
            for name, method in methods.items()
        }
        changed = True
        while changed:
            changed = False
            for name in methods:
                merged = set(acquires[name])
                for callee in calls[name]:
                    merged |= acquires[callee]
                if merged != acquires[name]:
                    acquires[name] = merged
                    changed = True
        # Edges: held lock -> lock acquired while holding it.
        edges: dict[tuple[str, str], tuple[int, str]] = {}
        for name, method in methods.items():
            for node in ast.walk(method):
                newly: set[str] = set()
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        attr = astutil.self_attribute(item.context_expr)
                        if attr is not None and attr in lock_names:
                            newly.add(attr)
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    if astutil.self_attribute(node.func) is not None:
                        newly = set(acquires.get(node.func.attr, set()))
                if not newly:
                    continue
                held = astutil.held_locks(node) & lock_names
                for holder in held:
                    for acquired in newly:
                        if holder == acquired:
                            if not contract.locks[acquired]:
                                yield Finding(
                                    file=contract.file.rel,
                                    line=node.lineno,
                                    code="RACE003",
                                    message=f"{contract.node.name}."
                                    f"{acquired} is not reentrant but "
                                    f"{name}() may re-acquire it while "
                                    "it is already held",
                                )
                            continue
                        edges.setdefault(
                            (holder, acquired), (node.lineno, name)
                        )
        # Any cycle in the edge graph is an order inversion: some path
        # acquires the locks in one order, another path in the reverse.
        successors: dict[str, set[str]] = {}
        for a, b in edges:
            successors.setdefault(a, set()).add(b)
        reported: set[frozenset[str]] = set()
        for (a, b), (line, where) in sorted(edges.items()):
            path = _find_path(successors, b, a)
            if path is None:
                continue
            cycle = frozenset([a, *path])
            if cycle in reported:
                continue
            reported.add(cycle)
            chain = " -> ".join([a, *path])
            yield Finding(
                file=contract.file.rel,
                line=line,
                code="RACE003",
                message=f"lock-order inversion in {contract.node.name}: "
                f"{where}() acquires {a} then {b}, closing the "
                f"acquisition cycle {chain}",
            )


def _find_path(
    successors: dict[str, set[str]], start: str, goal: str
) -> list[str] | None:
    """Shortest edge path ``start -> ... -> goal`` (BFS), or ``None``."""
    frontier: list[list[str]] = [[start]]
    seen = {start}
    while frontier:
        next_frontier: list[list[str]] = []
        for path in frontier:
            if path[-1] == goal:
                return path
            for node in sorted(successors.get(path[-1], ())):
                if node not in seen:
                    seen.add(node)
                    next_frontier.append(path + [node])
        frontier = next_frontier
    return None
