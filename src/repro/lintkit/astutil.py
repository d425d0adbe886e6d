"""The finding type, file enumeration and small AST helpers shared by
the static-invariant checks.

Each check is a plain ``check(root) -> List[Finding]`` over the
repository at ``root``; it parses sources and never imports the code
under analysis.  A file that does not parse raises ``SyntaxError``.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, NamedTuple, Optional, Set


class Finding(NamedTuple):
    """One violation: repo-relative ``path``, the check's ``code``,
    the enclosing or offending ``symbol`` (may be empty)."""

    path: str
    line: int
    code: str
    symbol: str
    message: str


def python_files(root: str, subdir: str) -> List[str]:
    """Sorted repo-relative paths of ``*.py`` under ``subdir``."""
    found = []
    for dirpath, dirnames, filenames in os.walk(
            os.path.join(root, subdir)):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            if name.endswith(".py"):
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                found.append(rel.replace(os.sep, "/"))
    return sorted(found)


def read(root: str, relpath: str) -> str:
    with open(os.path.join(root, relpath), "r", encoding="utf-8") as fh:
        return fh.read()


def parse(root: str, relpath: str) -> ast.Module:
    return ast.parse(read(root, relpath), filename=relpath)


def root_name(node: ast.AST) -> Optional[str]:
    """The :class:`ast.Name` id at the base of an attribute/subscript/
    call chain (``self._table[k].x`` -> ``"self"``), or ``None`` when
    the chain bottoms out in a literal or call result."""
    while True:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Starred):
            node = node.value
        else:
            return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def target_names(target: ast.AST) -> Iterator[ast.AST]:
    """Flatten tuple/list assignment targets into leaf targets."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from target_names(element)
    else:
        yield target


def module_str_constants(tree: ast.AST) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` assignments."""
    table: Dict[str, str] = {}
    for node in getattr(tree, "body", []):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            table[node.targets[0].id] = node.value.value
    return table


def resolve_str_set(node: ast.AST,
                    constants: Dict[str, str]) -> Optional[Set[str]]:
    """Evaluate a ``frozenset({NAME, "lit", ...})``-shaped expression
    against a module-constant table.  Handles set/tuple/list literals,
    ``frozenset(...)`` wrappers and ``|``/``+`` unions."""
    if isinstance(node, ast.Call):
        if node.args and not node.keywords:
            return resolve_str_set(node.args[0], constants)
        return None
    if isinstance(node, ast.BinOp) \
            and isinstance(node.op, (ast.BitOr, ast.Add)):
        left = resolve_str_set(node.left, constants)
        right = resolve_str_set(node.right, constants)
        if left is None or right is None:
            return None
        return left | right
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        out: Set[str] = set()
        for element in node.elts:
            if isinstance(element, ast.Constant) \
                    and isinstance(element.value, str):
                out.add(element.value)
            elif isinstance(element, ast.Name) \
                    and element.id in constants:
                out.add(constants[element.id])
            else:
                return None
        return out
    return None


def class_methods(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    """Directly defined methods of a class body, by name."""
    return {node.name: node for node in cls.body
            if isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef))}


def iter_classes(tree: ast.AST) -> Iterator[ast.ClassDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node
