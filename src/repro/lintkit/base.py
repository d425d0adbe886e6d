"""Core types of the static-invariant lint framework.

A *checker* is a registered component (kind ``lint``) that walks the
repository's Python ASTs (and docs) through a shared
:class:`LintContext` and reports :class:`Finding`\\ s — structural
violations of the simulator's correctness contracts (snapshot
completeness, proof purity, stats-slot discipline, determinism, docs
sync, obs guards).  Checkers never execute repository code: the
whole analysis is source-level, so it is safe to run on a broken tree
and cheap enough for a gating CI step.

See ``docs/linting.md`` for the checker catalogue and the plugin
protocol.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Finding:
    """One violation reported by a checker.

    ``path`` is repository-relative.  ``symbol`` names the enclosing
    class/function when meaningful and ``code`` the checker-specific
    violation class (one checker can enforce several related rules).
    :meth:`fingerprint` deliberately omits the line number so baseline
    suppressions survive unrelated edits that shift lines.
    """

    checker: str
    path: str
    line: int
    message: str
    symbol: str = ""
    code: str = ""

    def fingerprint(self) -> str:
        return "%s:%s:%s:%s" % (self.checker, self.path, self.symbol,
                                self.code)

    def as_dict(self) -> Dict[str, object]:
        return {
            "checker": self.checker,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "code": self.code,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }

    def render(self) -> str:
        where = "%s:%d" % (self.path, self.line)
        label = self.checker if not self.code \
            else "%s/%s" % (self.checker, self.code)
        prefix = "%s: [%s]" % (where, label)
        if self.symbol:
            prefix += " %s:" % self.symbol
        return "%s %s" % (prefix, self.message)


class LintContext:
    """Shared, cached view of the repository for one lint run.

    Parsing is memoized per path, so checkers that walk overlapping
    file sets (most of them) pay for each parse once.  Files that fail
    to parse surface as ``syntax-error`` findings via
    :meth:`parse_errors` instead of raising, so one broken file cannot
    hide every other finding.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self._texts: Dict[str, str] = {}
        self._trees: Dict[str, Optional[ast.AST]] = {}
        self._errors: List[Tuple[str, int, str]] = []

    # -- file access ------------------------------------------------------

    def abspath(self, relpath: str) -> str:
        return os.path.join(self.root, *relpath.split("/"))

    def exists(self, relpath: str) -> bool:
        return os.path.exists(self.abspath(relpath))

    def read(self, relpath: str) -> str:
        if relpath not in self._texts:
            with open(self.abspath(relpath), "r",
                      encoding="utf-8") as handle:
                self._texts[relpath] = handle.read()
        return self._texts[relpath]

    def tree(self, relpath: str) -> Optional[ast.AST]:
        """The parsed AST of ``relpath`` (``None`` on syntax error)."""
        if relpath not in self._trees:
            try:
                self._trees[relpath] = ast.parse(self.read(relpath),
                                                 filename=relpath)
            except SyntaxError as exc:
                self._trees[relpath] = None
                self._errors.append((relpath, exc.lineno or 0,
                                     exc.msg or "syntax error"))
        return self._trees[relpath]

    def parse_errors(self) -> List[Tuple[str, int, str]]:
        return list(self._errors)

    # -- enumeration ------------------------------------------------------

    def python_files(self, subdir: str = "src/repro"
                     ) -> List[str]:
        """Sorted repo-relative paths of ``*.py`` under ``subdir``."""
        base = self.abspath(subdir)
        found = []
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames
                                 if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name),
                                      self.root)
                found.append(rel.replace(os.sep, "/"))
        return sorted(found)

    def doc_files(self) -> List[str]:
        """The markdown surface the docs checks cover."""
        pages = []
        docs = self.abspath("docs")
        if os.path.isdir(docs):
            pages.extend("docs/" + name for name in os.listdir(docs)
                         if name.endswith(".md"))
        pages.extend(name for name in ("ROADMAP.md", "CHANGES.md")
                     if self.exists(name))
        return sorted(pages)


class Checker:
    """Base class for lint checkers (registered in ``LINTS``).

    Subclasses set ``name``/``summary``/``contract`` and implement
    :meth:`run`.  ``contract`` is the human-readable statement of the
    invariant being enforced; ``repro list lints`` and
    ``repro describe <name>`` surface it via :meth:`describe`.
    """

    name: str = ""
    summary: str = ""
    #: Full statement of the enforced invariant (multi-line ok).
    contract: str = ""
    #: Checker-specific finding codes -> one-line meanings.
    codes: Dict[str, str] = {}

    def run(self, ctx: LintContext) -> List[Finding]:
        raise NotImplementedError

    def finding(self, path: str, line: int, message: str,
                symbol: str = "", code: str = "") -> Finding:
        return Finding(checker=self.name, path=path, line=line,
                       message=message, symbol=symbol, code=code)

    @classmethod
    def describe(cls) -> Dict[str, object]:
        return {
            "name": cls.name,
            "summary": cls.summary,
            "contract": cls.contract,
            "codes": dict(cls.codes),
        }


def detect_root(start: Optional[str] = None) -> str:
    """Locate the repository root: the nearest ancestor of ``start``
    (default: cwd) holding ``src/repro``; falls back to the installed
    package's grandparent so ``repro lint`` works from anywhere."""
    probe = os.path.abspath(start or os.getcwd())
    while True:
        if os.path.isdir(os.path.join(probe, "src", "repro")):
            return probe
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    import repro
    pkg = os.path.dirname(os.path.abspath(repro.__file__))
    return os.path.dirname(os.path.dirname(pkg))


__all__ = ["Checker", "Finding", "LintContext", "detect_root"]
