"""Static invariants: each check is clean on the real tree and fires on
a seeded violation.

Every check in ``repro.lintkit`` is a plain ``check(root)`` over the
repository's sources.  Each gets a fixture repository seeded with a
deliberate violation and must report it (catching the "check passes
because it scans nothing" failure mode), plus a coverage guard that
the real tree still holds what the check exists for.  The obs-guards
check's clean-tree test sits with its scan tests in tests/test_obs.py.
"""

import ast
import os
import textwrap

import pytest

from repro.lintkit import determinism, docs_sync, purity, stats_slots
from repro.lintkit.astutil import class_methods, iter_classes, parse, \
    python_files

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))


def make_repo(tmp_path, files):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return str(tmp_path)


def codes_of(findings):
    return sorted(f.code for f in findings)


# ---------------------------------------------------------------------------
# the real tree
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("module", [
    purity, stats_slots, determinism, docs_sync],
    ids=lambda module: module.__name__.rsplit(".", 1)[1])
def test_tree_is_clean(module):
    findings = module.check(REPO_ROOT)
    assert not findings, "\n".join(map(str, findings))


def test_real_tree_holds_the_reviewed_allows():
    """The reviewed exception: the cache's prune cutoff, a wall-clock
    read that never enters a result payload."""
    assert [(f.path, f.symbol, f.code)
            for f in determinism.allowed(REPO_ROOT)] == [
        ("src/repro/exp/cache.py", "time.time", "wall-clock")]


def test_syntax_errors_raise(tmp_path):
    root = make_repo(tmp_path, {"src/repro/sim/broken.py": "def oops(:\n"})
    with pytest.raises(SyntaxError):
        determinism.check(root)


# ---------------------------------------------------------------------------
# proof-purity
# ---------------------------------------------------------------------------


def test_purity_checker_fires(tmp_path):
    root = make_repo(tmp_path, {
        "src/repro/memory/probe.py": """\
            class Cache:
                def probe_line(self, line):
                    self.hits += 1
                    self._table[line] = 1
                    self.stats.add(3)
                    bumps = []
                    bumps.append(self._h_stall)
                    replays = [lambda c, s: self.fill(line)]
                    return bumps, replays

                def load_block_proof(self, addr):
                    wake = min(addr, 4)
                    seen = set()
                    seen.add(addr)
                    return wake
            """,
    })
    findings = purity.check(root)
    assert codes_of(findings) == ["attr-assign", "aug-assign",
                                  "mutating-call"]
    assert all(f.symbol == "Cache.probe_line" for f in findings), findings


def test_purity_checker_tracks_aliases(tmp_path):
    """A local aliasing shared state is shared; iterating a shared
    container yields shared items."""
    root = make_repo(tmp_path, {
        "src/repro/memory/probe.py": """\
            class Cache:
                def probe_alias(self, line):
                    table = self._table
                    table.pop(line)
                    return None

                def next_event_cycle(self, cycle):
                    for entry in self._rows:
                        entry.update(cycle)
                    return cycle
            """,
    })
    assert codes_of(purity.check(root)) == ["mutating-call",
                                            "mutating-call"]


def test_purity_checker_walks_the_real_proof_family():
    """Guard against the family scan going vacuous: the known
    proof/probe surface of the simulator must be visited."""
    seen = set()
    for subdir in purity.SCOPE:
        for path in python_files(REPO_ROOT, subdir):
            for cls in iter_classes(parse(REPO_ROOT, path)):
                for fname in class_methods(cls):
                    if purity.in_family(fname):
                        seen.add("%s.%s" % (cls.name, fname))
    assert {"Core.next_event_cycle", "SharedMemory.access_block_proof",
            "BaseHierarchy.load_block_proof",
            "BaseHierarchy._probe_stall_bumps",
            "StridePrefetcher.peek", "Minion.probe"} <= seen


# ---------------------------------------------------------------------------
# stats-slots
# ---------------------------------------------------------------------------


def test_stats_slots_checker_fires(tmp_path):
    hot_stub = {name: "" for name in (
        "src/repro/pipeline/hotcore.py", "src/repro/memory/mshr.py",
        "src/repro/memory/hierarchy.py")}
    root = make_repo(tmp_path, dict(hot_stub, **{
        "src/repro/memory/cache.py": """\
            class C:
                def __init__(self, stats):
                    self._h = stats.handle("c.hits")

                def step(self, stats):
                    stats.bump("c.hits")
                    slot = stats.handle("c.misses")
                    return slot
            """,
        "src/repro/analysis/stats.py": """\
            class Stats:
                def bump(self, name):
                    slot = self.handle(name)
            """,
    }))
    findings = stats_slots.check(root)
    assert codes_of(findings) == ["late-intern", "string-bump"]
    # analysis/stats.py is exempt on both rules; __init__ interning ok.
    assert all(f.path == "src/repro/memory/cache.py" for f in findings)


def _legacy_walk():
    """The original hot-loop scan, kept verbatim as the reference
    implementation: (path, line, kind) offender tuples over src/repro
    with analysis/stats.py exempt."""
    src_root = os.path.join(REPO_ROOT, "src", "repro")
    exempt = {os.path.join("analysis", "stats.py")}
    offenders = []
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, src_root)
            if rel in exempt:
                continue
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            stack = []

            def walk(node):
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    stack.append(node.name)
                    for child in ast.iter_child_nodes(node):
                        walk(child)
                    stack.pop()
                    return
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute):
                    if node.func.attr == "bump":
                        offenders.append((rel.replace(os.sep, "/"),
                                          node.lineno, "string-bump"))
                    elif node.func.attr == "handle" \
                            and "__init__" not in stack:
                        offenders.append((rel.replace(os.sep, "/"),
                                          node.lineno, "late-intern"))
                for child in ast.iter_child_nodes(node):
                    walk(child)

            walk(tree)
    return sorted(offenders)


def test_checker_matches_legacy_walk():
    """The check reports the identical violation set the original walk
    did (modulo the repo-relative path prefix and the check's extra
    coverage guard)."""
    from_checker = sorted(
        (f.path[len("src/repro/"):], f.line, f.code)
        for f in stats_slots.check(REPO_ROOT)
        if f.code in ("string-bump", "late-intern"))
    assert from_checker == _legacy_walk()


def test_scan_covers_the_hot_modules(tmp_path):
    """The coverage guard fires when the walk no longer reaches the
    per-cycle files this check exists for (guards against a src layout
    move silently emptying the scan)."""
    assert set(stats_slots.HOT_MODULES) \
        <= set(python_files(REPO_ROOT, "src/repro"))
    (tmp_path / "src" / "repro").mkdir(parents=True)
    findings = stats_slots.check(str(tmp_path))
    assert {f.path for f in findings if f.code == "missing-hot-module"} \
        == set(stats_slots.HOT_MODULES)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_determinism_checker_fires(tmp_path):
    root = make_repo(tmp_path, {
        "src/repro/sim/clocky.py": """\
            import os
            import random
            import time

            def stamp():
                return time.time()

            def token():
                return os.urandom(8)

            def pick():
                return random.random()

            def rng():
                return random.Random()

            def seeded(seed):
                return random.Random(seed)

            def interval():
                return time.perf_counter()
            """,
    })
    assert codes_of(determinism.check(root)) == sorted([
        "wall-clock", "entropy", "global-random", "unseeded-random"])


def _clocky(tmp_path, comment):
    return make_repo(tmp_path, {
        "src/repro/sim/clocky.py": """\
            import time

            def stamp():
                return time.time()  %s

            def quiet():
                return 1
            """ % comment,
    })


def test_inline_allow_suppresses_matching_call(tmp_path):
    root = _clocky(tmp_path, "# determinism: allow wall-clock: fixture")
    assert determinism.check(root) == []
    (allowed,) = determinism.allowed(root)
    assert (allowed.path, allowed.line, allowed.symbol, allowed.code) \
        == ("src/repro/sim/clocky.py", 4, "time.time", "wall-clock")


def test_inline_allow_without_reason_is_a_finding(tmp_path):
    root = _clocky(tmp_path, "# determinism: allow wall-clock:")
    assert codes_of(determinism.check(root)) == ["allow-no-reason",
                                                 "wall-clock"]
    assert determinism.allowed(root) == []


def test_inline_allow_for_wrong_code_is_a_finding(tmp_path):
    root = _clocky(tmp_path, "# determinism: allow entropy: fixture")
    findings = determinism.check(root)
    assert codes_of(findings) == ["unused-allow", "wall-clock"]
    unused = [f for f in findings if f.code == "unused-allow"][0]
    assert unused.symbol == "entropy"


def test_inline_allow_without_a_call_is_a_finding(tmp_path):
    root = make_repo(tmp_path, {
        "src/repro/sim/clocky.py": """\
            def quiet():
                return 1  # determinism: allow wall-clock: stale
            """,
    })
    findings = determinism.check(root)
    assert [(f.line, f.code) for f in findings] == [(2, "unused-allow")]


# ---------------------------------------------------------------------------
# docs-sync
# ---------------------------------------------------------------------------


def test_docs_sync_checker_fires(tmp_path):
    root = make_repo(tmp_path, {
        "src/repro/pipeline/core.py": """\
            SKIP_MEM = "mem-stall"
            SKIP_CLASSES = frozenset({SKIP_MEM})
            VETO_REASONS = frozenset({"veto-a"})
            """,
        "docs/architecture.md": """\
            # Architecture
            [performance](performance.md)
            """,
        "docs/performance.md": """\
            # Performance
            [missing page](nowhere.md)
            [bad anchor](architecture.md#no-such-heading)

            <!-- stall-taxonomy:skip -->
            | `mem-stall` | skip |
            | `bogus-row` | skip |

            <!-- stall-taxonomy:veto -->
            | `veto-a` | veto |
            """,
        "docs/orphan.md": "# Orphan\n",
    })
    findings = docs_sync.check(root)
    assert codes_of(findings) == sorted([
        "broken-link", "broken-anchor", "unmapped-page",
        "taxonomy-drift"])
    drift = [f for f in findings if f.code == "taxonomy-drift"][0]
    assert drift.symbol == "bogus-row"
    orphan = [f for f in findings if f.code == "unmapped-page"][0]
    assert orphan.symbol == "orphan.md"


def test_docs_sync_actually_scans_the_pages():
    """The check walks the real docs surface (a docs/ move must not
    silently empty the scan)."""
    pages = docs_sync.doc_files(REPO_ROOT)
    assert "docs/architecture.md" in pages
    assert "docs/performance.md" in pages
    assert "docs/linting.md" in pages
    assert "ROADMAP.md" in pages and "CHANGES.md" in pages
