"""obs-guards: observability hooks stay zero-cost when disabled.

The tracing layer (``docs/observability.md``) promises that a
simulation with no tracer attached pays exactly one attribute check
per potential event: every emit site sits behind ``if self._obs is
not None:`` (or an alias bound from ``._obs``), and the ``_obs``
attribute itself defaults to ``None``.  An unguarded emit would make
every untraced run pay a method call — and, worse, would crash it
outright while ``_obs`` is ``None``.

Structurally, inside the per-cycle hot modules:

* every call to an obs emit method (``emit_*``/``on_cycle``) on an
  ``._obs`` attribute or an obs alias is lexically inside an ``if``
  whose test references ``_obs`` (directly or through the alias);
* the walk actually reaches the hooked hot modules, so a source
  layout move cannot silently empty the scan.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.lintkit.base import Checker, Finding, LintContext

#: Methods the tracing layer exposes to hot paths.  ``on_cycle`` is the
#: per-cycle sampler tick; everything else appends one event.
EMIT_METHODS = frozenset({
    "emit_stage", "emit_squash", "emit_mem", "emit_skip",
    "emit_marker", "on_cycle",
})

#: The modules holding (or allowed to hold) obs hooks on per-cycle
#: paths.  The scan must keep reaching each of them.
HOT_MODULES = (
    "src/repro/pipeline/hotcore.py",
    "src/repro/pipeline/core.py",
    "src/repro/memory/cache.py",
    "src/repro/memory/mshr.py",
    "src/repro/memory/hierarchy.py",
    "src/repro/sim/simulator.py",
)


def _mentions_obs(node: ast.AST, aliases: Set[str]) -> bool:
    """Does this expression reference ``._obs`` or an obs alias?"""
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and child.attr == "_obs":
            return True
        if isinstance(child, ast.Name) and child.id in aliases:
            return True
    return False


class _GuardScan(ast.NodeVisitor):
    """Emit-call sites that are not under an ``_obs`` guard.

    Tracks, per enclosing function, the names bound from an ``._obs``
    attribute (``obs = self._obs``) and whether the current lexical
    position is inside an ``if`` whose test mentions ``_obs`` or an
    alias.  ``else`` branches of a guard are *not* guarded.
    """

    def __init__(self) -> None:
        self.unguarded: List[int] = []
        self._aliases: Set[str] = set()
        self._guard_depth = 0

    def _visit_func(self, node: ast.FunctionDef) -> None:
        saved_aliases, saved_depth = self._aliases, self._guard_depth
        self._aliases, self._guard_depth = set(), 0
        self.generic_visit(node)
        self._aliases, self._guard_depth = saved_aliases, saved_depth

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Attribute) and \
                node.value.attr == "_obs":
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._aliases.add(target.id)
        self.generic_visit(node)

    def visit_If(self, node: ast.If) -> None:
        guards = _mentions_obs(node.test, self._aliases)
        self.visit(node.test)
        if guards:
            self._guard_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if guards:
            self._guard_depth -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) \
                and func.attr in EMIT_METHODS \
                and _mentions_obs(func.value, self._aliases) \
                and self._guard_depth == 0:
            self.unguarded.append(node.lineno)
        self.generic_visit(node)


class ObsGuardsChecker(Checker):
    """Tracing hooks cost one ``is not None`` check when disabled."""

    name = "obs-guards"
    summary = ("every obs emit on a hot path sits behind an "
               "`if ... _obs is not None` guard")
    contract = (
        "An untraced simulation pays exactly one attribute check per "
        "potential trace event: `_obs` defaults to None and every "
        "emit_*/on_cycle call in the per-cycle modules (pipeline "
        "hot core, memory system, simulator loop) is lexically inside "
        "an `if` whose test references `_obs` — directly or through a "
        "local alias bound from it.  The scan must keep reaching the "
        "hooked hot modules; a layout move that empties it is itself "
        "a finding.")
    codes = {
        "unguarded-emit": "obs emit call not behind an `_obs is not "
                          "None` guard on a hot path",
        "missing-hot-module": "the scan no longer reaches a known "
                              "hooked hot-path module",
    }

    def run(self, ctx: LintContext) -> List[Finding]:
        findings: List[Finding] = []
        seen = set()
        targets = set(HOT_MODULES)
        for path in ctx.python_files("src/repro"):
            if path not in targets:
                continue
            seen.add(path)
            tree = ctx.tree(path)
            if tree is None:
                continue
            scan = _GuardScan()
            scan.visit(tree)
            for line in scan.unguarded:
                findings.append(self.finding(
                    path, line,
                    "obs emit call outside an `_obs is not None` "
                    "guard — untraced runs must pay one attribute "
                    "check, not a method call", code="unguarded-emit"))
        for expected in HOT_MODULES:
            if expected not in seen:
                findings.append(self.finding(
                    expected, 0,
                    "hooked hot-path module not reached by the "
                    "obs-guard scan — source layout moved without "
                    "updating the lint", code="missing-hot-module"))
        return findings
