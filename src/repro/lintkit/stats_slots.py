"""stats-slots: the hot path stays on interned stat handles.

The per-cycle loop (and every component it drives) bumps counters
through integer handles resolved once at construction — never through
the string-keyed ``Stats.bump`` — and never re-interns on a hot path.
This check is the original hot-loop AST walk (kept as the reference
``_legacy_walk`` in tests/test_lint.py) plus a coverage guard:

* ``.bump(...)`` appears nowhere under ``src/repro`` except inside
  ``repro/analysis/`` (whose string-keyed view is the cold-path API
  for reports, figures and tests);
* ``.handle(...)`` is only called from ``__init__`` methods
  (``analysis/stats.py`` excepted) — interning happens at
  construction time;
* the walk actually reaches the per-cycle modules it exists for, so a
  source-layout move cannot silently empty the scan.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lintkit.astutil import Finding, parse, python_files

#: The string-keyed view lives here; everything under it is cold path.
EXEMPT_BUMP_PREFIX = "src/repro/analysis/"
EXEMPT_HANDLE = frozenset({"src/repro/analysis/stats.py"})

#: The per-cycle files this lint exists for: if the walk misses any of
#: them the scan has gone vacuous.
HOT_MODULES = (
    "src/repro/pipeline/hotcore.py",
    "src/repro/memory/cache.py",
    "src/repro/memory/mshr.py",
    "src/repro/memory/hierarchy.py",
)


class _CallScan(ast.NodeVisitor):
    """Method-call sites of interest with their enclosing function."""

    def __init__(self) -> None:
        self.stack: List[str] = []
        self.bumps: List[int] = []
        self.handles_outside_init: List[int] = []

    def _visit_func(self, node: ast.FunctionDef) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "bump":
                self.bumps.append(node.lineno)
            elif func.attr == "handle":
                if "__init__" not in self.stack:
                    self.handles_outside_init.append(node.lineno)
        self.generic_visit(node)


def check(root: str) -> List[Finding]:
    """Hot-path counters go through interned slots, not string keys."""
    findings: List[Finding] = []
    paths = python_files(root, "src/repro")
    for path in paths:
        scan = _CallScan()
        scan.visit(parse(root, path))
        if not path.startswith(EXEMPT_BUMP_PREFIX):
            for line in scan.bumps:
                findings.append(Finding(
                    path, line, "string-bump", "",
                    "string-keyed Stats.bump() on a simulation path — "
                    "intern a handle in __init__ and use "
                    "stats.add(slot)"))
        if path not in EXEMPT_HANDLE:
            for line in scan.handles_outside_init:
                findings.append(Finding(
                    path, line, "late-intern", "",
                    "Stats.handle() outside __init__ — interning "
                    "belongs at construction, not on a per-cycle path"))
    for expected in HOT_MODULES:
        if expected not in paths:
            findings.append(Finding(
                expected, 0, "missing-hot-module", "",
                "hot-path module not reached by the stats-slot scan — "
                "source layout moved without updating the check"))
    return findings
