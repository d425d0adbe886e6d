"""docs-sync: documentation stays pinned to code.

One check for three kinds of docs drift:

* every ``[text](target)`` relative link across ``docs/*.md``,
  ``ROADMAP.md`` and ``CHANGES.md`` must resolve, and a ``#fragment``
  must match a heading (GitHub anchor rules) in the target page;
* ``docs/architecture.md`` is the map: it must link every other docs
  page;
* the stall-taxonomy tables after the
  ``<!-- stall-taxonomy:skip -->`` / ``<!-- stall-taxonomy:veto -->``
  markers in ``docs/performance.md`` must list exactly the
  ``SKIP_CLASSES`` / ``VETO_REASONS`` sets defined in
  ``src/repro/pipeline/core.py``.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, List, Optional, Set

from repro.lintkit.astutil import Finding, module_str_constants, \
    parse, read, resolve_str_set

TAXONOMY_SOURCE = "src/repro/pipeline/core.py"
TAXONOMY_PAGE = "docs/performance.md"
TAXONOMY_TABLES = (("SKIP_CLASSES", "<!-- stall-taxonomy:skip -->"),
                   ("VETO_REASONS", "<!-- stall-taxonomy:veto -->"))

#: [text](target) — excluding images and in-code backticked brackets.
LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
ROW_RE = re.compile(r"\|\s*`([a-z-]+)`\s*\|")


def _strip_code(text: str) -> str:
    """Drop fenced code blocks and neutralize inline code spans (links
    inside code samples are illustrative, not navigable).  Inline
    spans are *replaced*, not deleted: a link whose entire text is a
    code span must keep matching LINK_RE."""
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    return re.sub(r"`[^`]*`", "code", text)


def _github_anchor(heading: str) -> str:
    """GitHub's heading -> anchor transformation."""
    heading = re.sub(r"[`*_]", "", heading.strip().lower())
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def doc_files(root: str) -> List[str]:
    """The markdown surface the docs checks cover."""
    pages = []
    docs = os.path.join(root, "docs")
    if os.path.isdir(docs):
        pages.extend("docs/" + name for name in os.listdir(docs)
                     if name.endswith(".md"))
    pages.extend(name for name in ("ROADMAP.md", "CHANGES.md")
                 if os.path.exists(os.path.join(root, name)))
    return sorted(pages)


def check(root: str) -> List[Finding]:
    """Docs links resolve; pinned tables match the code's sets."""
    findings: List[Finding] = []
    _check_links(root, findings)
    _check_coverage(root, findings)
    _check_taxonomy(root, findings)
    return findings


# -- links ------------------------------------------------------------------

def _links_of(text: str) -> List[str]:
    return LINK_RE.findall(_strip_code(text))


def _anchors_of(text: str) -> Set[str]:
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    return {_github_anchor(h) for h in HEADING_RE.findall(text)}


def _check_links(root: str, findings: List[Finding]) -> None:
    anchors: Dict[str, Set[str]] = {}
    for page in doc_files(root):
        text = read(root, page)
        base_dir = os.path.dirname(os.path.join(root, page))
        for target in _links_of(text):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):
                continue  # URL scheme
            path_part, _, fragment = target.partition("#")
            if path_part:
                dest = os.path.normpath(os.path.join(base_dir, path_part))
            else:
                dest = os.path.join(root, page)  # same-page anchor
            line = _link_line(text, target)
            if not os.path.exists(dest):
                findings.append(Finding(
                    page, line, "broken-link", target,
                    "link target %r does not exist" % target))
                continue
            if fragment and dest.endswith(".md"):
                rel_dest = os.path.relpath(dest, root).replace(os.sep, "/")
                if rel_dest not in anchors:
                    anchors[rel_dest] = _anchors_of(read(root, rel_dest))
                if fragment not in anchors[rel_dest]:
                    findings.append(Finding(
                        page, line, "broken-anchor", target,
                        "link %r names no heading anchor in %s"
                        % (target, rel_dest)))


def _link_line(text: str, target: str) -> int:
    for number, line in enumerate(text.splitlines(), 1):
        if "(%s)" % target in line:
            return number
    return 0


def _check_coverage(root: str, findings: List[Finding]) -> None:
    arch = "docs/architecture.md"
    if not os.path.exists(os.path.join(root, arch)):
        findings.append(Finding(
            arch, 0, "unmapped-page", "",
            "docs/architecture.md is missing — it is the map that "
            "links every docs page"))
        return
    linked = {os.path.basename(t.partition("#")[0])
              for t in _links_of(read(root, arch))}
    for page in doc_files(root):
        name = os.path.basename(page)
        if name == "architecture.md" or not page.startswith("docs/"):
            continue
        if name not in linked:
            findings.append(Finding(
                arch, 0, "unmapped-page", name,
                "docs/architecture.md does not link %s — every docs "
                "page must be reachable from the map" % name))


# -- taxonomy tables --------------------------------------------------------

def _code_sets(root: str) -> Dict[str, Set[str]]:
    if not os.path.exists(os.path.join(root, TAXONOMY_SOURCE)):
        return {}
    tree = parse(root, TAXONOMY_SOURCE)
    constants = module_str_constants(tree)
    sets: Dict[str, Set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) \
                and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id in dict(TAXONOMY_TABLES):
            resolved = resolve_str_set(node.value, constants)
            if resolved is not None:
                sets[node.targets[0].id] = resolved
    return sets


def _documented(text: str, marker: str) -> Optional[Set[str]]:
    if marker not in text:
        return None
    names: List[str] = []
    in_table = False
    for line in text.split(marker, 1)[1].splitlines():
        row = ROW_RE.match(line)
        if row:
            in_table = True
            names.append(row.group(1))
        elif in_table and not line.startswith("|"):
            break  # table ended
    return set(names) if names else None


def _check_taxonomy(root: str, findings: List[Finding]) -> None:
    if not os.path.exists(os.path.join(root, TAXONOMY_PAGE)):
        findings.append(Finding(
            TAXONOMY_PAGE, 0, "missing-marker", "",
            "taxonomy docs page is missing"))
        return
    text = read(root, TAXONOMY_PAGE)
    code_sets = _code_sets(root)
    for set_name, marker in TAXONOMY_TABLES:
        documented = _documented(text, marker)
        if documented is None:
            findings.append(Finding(
                TAXONOMY_PAGE, 0, "missing-marker", set_name,
                "no %s table found after marker %r" % (set_name, marker)))
            continue
        in_code = code_sets.get(set_name)
        if in_code is None:
            findings.append(Finding(
                TAXONOMY_SOURCE, 0, "taxonomy-drift", set_name,
                "%s is not a statically resolvable frozenset of string "
                "constants" % set_name))
            continue
        for name in sorted(in_code - documented):
            findings.append(Finding(
                TAXONOMY_PAGE, 0, "taxonomy-drift", name,
                "%s member %r is undocumented in the %s table"
                % (set_name, name, marker)))
        for name in sorted(documented - in_code):
            findings.append(Finding(
                TAXONOMY_PAGE, 0, "taxonomy-drift", name,
                "documented %s entry %r no longer exists in the code"
                % (set_name, name)))
