"""Small AST helpers shared by the rule modules."""

from __future__ import annotations

import ast
from typing import Iterator


def walk_with_parents(tree: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that first stamps every node with ``.parent``
    (the module node's parent is ``None``)."""
    setattr(tree, "parent", getattr(tree, "parent", None))
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            setattr(child, "parent", node)
    return ast.walk(tree)


def parent(node: ast.AST) -> ast.AST | None:
    return getattr(node, "parent", None)


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    """The node's parent chain, innermost first (requires a tree walked
    by :func:`walk_with_parents`)."""
    current = parent(node)
    while current is not None:
        yield current
        current = parent(current)


def self_attribute(node: ast.AST) -> str | None:
    """``"x"`` when the node is exactly ``self.x``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def dotted_name(node: ast.AST) -> str | None:
    """``"a.b.c"`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def held_locks(node: ast.AST) -> set[str]:
    """Names of every ``self.<lock>`` held at the node's position:
    the ``with self.X:`` (or ``with self.X as y:``) statements on the
    node's ancestor chain within its enclosing function."""
    held: set[str] = set()
    for ancestor in ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                name = self_attribute(item.context_expr)
                if name is not None:
                    held.add(name)
    return held


def call_name(node: ast.Call) -> str | None:
    """The called name (``"f"`` for ``f(...)``), else ``None``."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None
