"""Static invariant analysis for the simulator's correctness contracts.

``repro lint`` (and the gating CI lane behind it) runs AST-based
checkers over the repository: snapshot completeness, proof purity,
stats-slot discipline, determinism, docs sync and obs guards.  Checkers are typed registry components (kind ``lint``), so
plugins add project-specific invariants through the same
``REPRO_PLUGINS`` seam as defenses and workloads.

See ``docs/linting.md`` for the checker catalogue, the baseline
workflow and a worked plugin example.
"""

from __future__ import annotations

from repro.lintkit.base import Checker, Finding, LintContext, \
    detect_root
from repro.lintkit.baseline import BaselineError, DEFAULT_BASELINE, \
    Suppression, load_baseline
from repro.lintkit.engine import LintReport, REPORT_SCHEMA_VERSION, \
    report_to_json, run_lint, select_checkers


def __getattr__(name: str):
    # LINTS lives in repro.lintkit.checkers (the registry-populating
    # import); resolve it lazily so `import repro.lintkit` stays cheap.
    if name == "LINTS":
        from repro.lintkit.checkers import LINTS
        return LINTS
    raise AttributeError(name)


__all__ = [
    "BaselineError",
    "Checker",
    "DEFAULT_BASELINE",
    "Finding",
    "LINTS",
    "LintContext",
    "LintReport",
    "REPORT_SCHEMA_VERSION",
    "Suppression",
    "detect_root",
    "load_baseline",
    "report_to_json",
    "run_lint",
    "select_checkers",
]
