"""proof-purity: stall-proof probes must not mutate simulator state.

The event-driven scheduler trusts the proof/probe family —
``*_proof``, ``probe*``, ``next_event_cycle``,
``_probe_stall_bumps``, ``_probe_present``, ``ifetch_would_hit`` — to
inspect state without changing it: a probe that bumps a counter or
touches an LRU makes the dense differential oracle diverge from the
event path *silently*.  The version reads ``ifetch_version``,
``load_retry_version`` and ``l2_retry_version`` belong to the family
too: the step loop calls
them to decide whether to skip a probe or replay a parked issue
attempt, so a read that changed state would change what it guards.
Mutations belong in the returned ``StallProof`` bump handles, applied
by the scheduler once the skip is committed.

The analysis is a conservative freshness walk: locals assigned from
literals, constructors or arithmetic are *fresh* (a proof may build its
payload in them); ``self``, parameters and anything aliased from an
attribute/subscript chain are *shared*.  Writes through shared roots
and calls of known mutating methods on shared roots are findings.
Nested ``lambda``/``def`` bodies are skipped: a deferred thunk runs
only when its caller chooses to, not when the probe is asked.
"""

from __future__ import annotations

import ast
from typing import Dict, List

from repro.lintkit.astutil import Finding, class_methods, \
    iter_classes, parse, python_files, root_name, target_names

#: Exact names in the family besides the ``*_proof``/``probe*``
#: patterns.  (``ifetch_probe`` is deliberately *not* covered: it
#: drains due fills by documented design before probing.)
FAMILY_NAMES = frozenset({
    "next_event_cycle", "_probe_stall_bumps", "_probe_present",
    "ifetch_would_hit", "ifetch_version", "load_retry_version",
    "l2_retry_version",
})

#: Method names that mutate their receiver in this codebase (Stats,
#: caches, MSHRs, minions, deques, dicts, sets, lists).
MUTATORS = frozenset({
    "add", "add_fill", "allocate", "append", "appendleft", "attach",
    "bump", "clear", "discard", "drain", "extend", "fill", "insert",
    "invalidate", "mark_ready", "merge", "move_to_end", "pop",
    "popitem", "popleft", "postpone", "promote", "push", "register",
    "remove", "set", "setdefault", "steal", "timeleap", "touch",
    "train", "update", "wipe", "wipe_above",
})


def in_family(name: str) -> bool:
    return name.endswith("_proof") or name.startswith("probe") \
        or name in FAMILY_NAMES


class _PurityWalk(ast.NodeVisitor):
    """Freshness-tracking walk over one proof-family function body."""

    def __init__(self, path: str, symbol: str,
                 func: ast.FunctionDef) -> None:
        self.path = path
        self.symbol = symbol
        self.func = func
        self.findings: List[Finding] = []
        args = func.args
        params = [a.arg for a in
                  args.posonlyargs + args.args + args.kwonlyargs]
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                params.append(extra.arg)
        #: name -> True when the local holds a freshly built value.
        self.fresh: Dict[str, bool] = {name: False for name in params}

    # -- freshness lattice ------------------------------------------------

    def _value_is_fresh(self, value: ast.AST) -> bool:
        if isinstance(value, ast.Name):
            return self.fresh.get(value.id, True)  # globals: immutable
        if isinstance(value, (ast.Attribute, ast.Subscript)):
            return False  # alias into the object graph
        if isinstance(value, ast.IfExp):
            return self._value_is_fresh(value.body) \
                and self._value_is_fresh(value.orelse)
        # Literals, constructors, call results, comprehensions,
        # arithmetic: treated as fresh.  (A call *returning* a shared
        # object then mutated through the local escapes this lint; the
        # direct self-rooted chain covers the cases that matter.)
        return True

    def _shared_root(self, node: ast.AST) -> bool:
        root = root_name(node)
        return root is not None and not self.fresh.get(root, True)

    def _bind(self, target: ast.AST, fresh: bool) -> None:
        for leaf in target_names(target):
            if isinstance(leaf, ast.Name):
                self.fresh[leaf.id] = fresh

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(Finding(self.path, node.lineno, code,
                                     self.symbol, message))

    # -- skipped scopes ---------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is not self.func:
            return  # deferred replay thunk: mutation is its job
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return

    # -- statements -------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        fresh = self._value_is_fresh(node.value)
        for target in node.targets:
            for leaf in target_names(target):
                if isinstance(leaf, (ast.Attribute, ast.Subscript)):
                    if self._shared_root(leaf):
                        self._flag(leaf, "attr-assign",
                                   "assignment through shared state "
                                   "(%s) inside a proof-family "
                                   "function" % ast.unparse(leaf))
            self._bind(target, fresh)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, (ast.Attribute, ast.Subscript)) \
                and self._shared_root(node.target):
            self._flag(node.target, "attr-assign",
                       "assignment through shared state (%s) inside a "
                       "proof-family function"
                       % ast.unparse(node.target))
        elif node.value is not None:
            self._bind(node.target, self._value_is_fresh(node.value))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, (ast.Attribute, ast.Subscript)):
            if self._shared_root(node.target):
                self._flag(node.target, "aug-assign",
                           "in-place mutation of shared state (%s) "
                           "inside a proof-family function"
                           % ast.unparse(node.target))
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)) \
                    and self._shared_root(target):
                self._flag(target, "attr-assign",
                           "deletion of shared state (%s) inside a "
                           "proof-family function"
                           % ast.unparse(target))
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        # Iterating a shared container yields shared items.
        self._bind(node.target, self._value_is_fresh(node.iter))
        self.generic_visit(node)

    def visit_withitem(self, node: ast.withitem) -> None:
        if node.optional_vars is not None:
            self._bind(node.optional_vars,
                       self._value_is_fresh(node.context_expr))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATORS \
                and self._shared_root(func.value):
            self._flag(node, "mutating-call",
                       "call of mutating method %s() on shared state "
                       "(%s) inside a proof-family function"
                       % (func.attr, ast.unparse(func)))
        self.generic_visit(node)


#: Directories whose classes participate in the stall analysis.
SCOPE = ("src/repro/pipeline", "src/repro/memory", "src/repro/defenses",
         "src/repro/core", "src/repro/sim")


def check(root: str) -> List[Finding]:
    """Proof/probe-family methods must be side-effect-free."""
    findings: List[Finding] = []
    for subdir in SCOPE:
        for path in python_files(root, subdir):
            for cls in iter_classes(parse(root, path)):
                for fname, func in class_methods(cls).items():
                    if in_family(fname):
                        walk = _PurityWalk(
                            path, "%s.%s" % (cls.name, fname), func)
                        walk.visit(func)
                        findings.extend(walk.findings)
    return findings
