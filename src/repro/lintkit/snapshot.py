"""snapshot-completeness: SnapshotMixin wiring vs captured state.

``repro.snapshot.SnapshotMixin`` captures *everything* an instance
holds except names listed in ``_SNAPSHOT_EXCLUDE`` (nested mixins
recurse in place).  Two structural failure modes produce silently
wrong checkpoints:

* **wiring captured as state** — a ``self.<attr> = <param>`` in
  ``__init__`` that stores an injected collaborator (stats sink,
  config, shared memory, back-reference) without an exclusion entry
  deep-copies the collaborator into every snapshot: restores then
  resurrect stale counters/config and break byte-identity with a cold
  run;
* **stale exclusions** — a ``_SNAPSHOT_EXCLUDE`` name never assigned
  on the class silently stops protecting anything after a rename.

The checker resolves each class's *effective* exclusion tuple
(literal tuples, ``Base._SNAPSHOT_EXCLUDE + (...)`` extensions and
inheritance) and each class's *effective* ``__init__`` (own or
inherited), then cross-checks the two.  Classes that override the
snapshot protocol itself (``snapshot_state``/``restore_state``/
``_state_items``) opt out of the structural analysis.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.lintkit.astutil import Finding, base_names, class_methods, \
    const_str_elements, iter_classes, parse, python_files

#: Parameter names whose storage on self is wiring by convention.
WIRING_PARAM_NAMES = frozenset({
    "stats", "cfg", "config", "shared", "hierarchy", "memory",
    "defense", "program", "core", "owner", "parent",
})

#: Annotation type names that mark an injected collaborator.
WIRING_TYPE_NAMES = frozenset({
    "Stats", "SystemConfig", "SharedMemory", "CacheConfig",
    "MinionConfig", "DRAMConfig", "TLBConfig", "PredictorConfig",
    "CoreConfig", "Defense", "Simulator",
})


class _ClassInfo:
    def __init__(self, path: str, node: ast.ClassDef) -> None:
        self.path = path
        self.node = node
        self.bases = base_names(node)
        self.methods = class_methods(node)


def _annotation_name(annotation: Optional[ast.AST]) -> Optional[str]:
    """Bare type name of a parameter annotation (unwraps Optional[...]
    by taking the subscripted head's argument when it is a Name)."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) \
            and isinstance(annotation.value, str):
        # String annotation: take the last identifier-ish head.
        text = annotation.value.strip()
        for bracket in ("[", "]"):
            text = text.replace(bracket, " ")
        for token in text.split():
            head = token.split(".")[-1].rstrip(",")
            if head in WIRING_TYPE_NAMES:
                return head
        return None
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Subscript):
        # Optional[X] / "Optional[Stats]": scan the slice.
        for inner in ast.walk(annotation.slice):
            name = _annotation_name(inner)
            if name in WIRING_TYPE_NAMES:
                return name
    return None


def check(root: str) -> List[Finding]:
    """Injected wiring must be excluded from snapshots, and every
    exclusion must still name a real attribute."""
    index = _class_index(root)
    findings: List[Finding] = []
    for info in index.values():
        if info.path == "src/repro/snapshot.py":
            continue  # the mixin itself
        if not _is_snapshot_class(info, index):
            continue
        if _overrides_protocol(info):
            continue
        findings.extend(_check_class(info, index))
    return findings


# -- class graph ------------------------------------------------------------

def _class_index(root: str) -> Dict[str, _ClassInfo]:
    index: Dict[str, _ClassInfo] = {}
    for path in python_files(root, "src/repro"):
        for cls in iter_classes(parse(root, path)):
            # First definition wins; bare-name collisions are rare
            # enough that a project-wide index stays useful.
            index.setdefault(cls.name, _ClassInfo(path, cls))
    return index


def _ancestry(info: _ClassInfo,
              index: Dict[str, _ClassInfo]) -> List[_ClassInfo]:
    """``info`` followed by its resolvable bases, nearest first."""
    out, queue, seen = [], [info], set()
    while queue:
        node = queue.pop(0)
        if node.node.name in seen:
            continue
        seen.add(node.node.name)
        out.append(node)
        for base in node.bases:
            if base in index:
                queue.append(index[base])
    return out


def _is_snapshot_class(info: _ClassInfo,
                       index: Dict[str, _ClassInfo]) -> bool:
    return any("SnapshotMixin" in ancestor.bases
               for ancestor in _ancestry(info, index))


def _overrides_protocol(info: _ClassInfo) -> bool:
    bespoke = {"snapshot_state", "restore_state", "_state_items"}
    return bool(bespoke & set(info.methods))


# -- exclusion resolution ---------------------------------------------------

def _own_exclude(info: _ClassInfo
                 ) -> Tuple[Optional[List[str]], Optional[ast.AST]]:
    """The names this class *itself* adds via _SNAPSHOT_EXCLUDE:
    (added_names, node) — added_names None when unresolvable, node
    None when the class does not set the attribute."""
    for stmt in info.node.body:
        target = None
        value = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            target, value = stmt.targets[0].id, stmt.value
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name):
            target, value = stmt.target.id, stmt.value
        if target != "_SNAPSHOT_EXCLUDE" or value is None:
            continue
        names = const_str_elements(value)
        if names is not None:
            return names, stmt
        if isinstance(value, ast.BinOp) \
                and isinstance(value.op, ast.Add):
            # Base._SNAPSHOT_EXCLUDE + ("extra", ...): the base half is
            # inherited anyway; only the right-hand extension is "own".
            extension = const_str_elements(value.right)
            if extension is not None and isinstance(
                    value.left, (ast.Attribute, ast.Name)):
                return extension, stmt
        return None, stmt
    return [], None


def _effective_exclude(info: _ClassInfo, index: Dict[str, _ClassInfo]
                       ) -> Optional[Set[str]]:
    excluded: Set[str] = set()
    for ancestor in _ancestry(info, index):
        own, _node = _own_exclude(ancestor)
        if own is None:
            return None  # dynamic expression somewhere in the MRO
        excluded.update(own)
    return excluded


# -- the check --------------------------------------------------------------

def _all_assigned_attrs(info: _ClassInfo,
                        index: Dict[str, _ClassInfo]) -> Set[str]:
    assigned: Set[str] = set()
    for ancestor in _ancestry(info, index):
        for func in ancestor.methods.values():
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id == "self" \
                        and isinstance(node.ctx, ast.Store):
                    assigned.add(node.attr)
    return assigned


def _check_class(info: _ClassInfo,
                 index: Dict[str, _ClassInfo]) -> List[Finding]:
    findings: List[Finding] = []
    name = info.node.name
    excluded = _effective_exclude(info, index)
    if excluded is None:
        _own, node = _own_exclude(info)
        findings.append(Finding(
            info.path,
            node.lineno if node is not None else info.node.lineno,
            "unresolved-exclude", name,
            "_SNAPSHOT_EXCLUDE is not a resolvable literal tuple; the "
            "snapshot contract cannot be checked statically"))
        return findings

    # (a) wiring stored without an exclusion.  Every __init__ that runs
    # for this class counts (own plus ancestors', since super().__init__
    # chains assignments).
    flagged: Set[str] = set()
    for owner in _ancestry(info, index):
        init = owner.methods.get("__init__")
        if init is None:
            continue
        wiring = _wiring_params(init)
        for stmt in ast.walk(init):
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                attr = target.attr
                if attr in excluded or attr in flagged:
                    continue
                source = _wiring_source(stmt.value, wiring)
                if source is None:
                    continue
                flagged.add(attr)
                findings.append(Finding(
                    owner.path, stmt.lineno, "unsnapshotted-wiring",
                    "%s.%s" % (name, attr),
                    "self.%s stores injected wiring (%s) but is not in "
                    "_SNAPSHOT_EXCLUDE; snapshots would deep-copy it "
                    "and restores would resurrect stale wiring"
                    % (attr, source)))

    # (b) own exclusions that no longer name an attribute.
    own, node = _own_exclude(info)
    if own and node is not None:
        assigned = _all_assigned_attrs(info, index)
        for attr in own:
            if attr not in assigned:
                findings.append(Finding(
                    info.path, node.lineno, "stale-exclude",
                    "%s.%s" % (name, attr),
                    "_SNAPSHOT_EXCLUDE lists %r but no method of %s (or "
                    "its bases) assigns self.%s — stale exclusion"
                    % (attr, name, attr)))
    return findings


def _wiring_params(init: ast.FunctionDef) -> Dict[str, str]:
    """Parameter name -> reason string for wiring-typed params."""
    wiring: Dict[str, str] = {}
    args = init.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        if arg.arg == "self":
            continue
        annotated = _annotation_name(arg.annotation)
        if annotated in WIRING_TYPE_NAMES:
            wiring[arg.arg] = "parameter %r annotated %s" \
                % (arg.arg, annotated)
        elif arg.arg in WIRING_PARAM_NAMES:
            wiring[arg.arg] = "parameter %r is wiring by naming " \
                "convention" % arg.arg
    return wiring


def _wiring_source(value: ast.AST,
                   wiring: Dict[str, str]) -> Optional[str]:
    """Why ``value`` aliases injected wiring, or None."""
    if isinstance(value, ast.Name) and value.id in wiring:
        return wiring[value.id]
    if isinstance(value, ast.Attribute):
        node: ast.AST = value
        while isinstance(node, ast.Attribute):
            node = node.value
        if isinstance(node, ast.Name) and node.id in wiring:
            return wiring[node.id] + " (attribute alias)"
    if isinstance(value, ast.BoolOp):  # stats or Stats()
        for part in value.values:
            source = _wiring_source(part, wiring)
            if source is not None:
                return source
    return None
