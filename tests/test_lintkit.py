"""The lint framework: every checker is non-vacuous, the engine's
select/ignore/baseline/JSON surfaces work, and the real tree is clean.

Each checker gets a fixture repository seeded with a deliberate
violation and must fire (catching the "lint passes because it scans
nothing" failure mode), and the clean-tree smoke pins the actual
repository to zero unsuppressed findings.
"""

import json
import os
import textwrap

import pytest

from repro.lintkit import (
    BaselineError,
    LintContext,
    load_baseline,
    report_to_json,
    run_lint,
)
from repro.lintkit.baseline import _parse_minimal

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))

ALL_CHECKERS = ["snapshot-completeness", "proof-purity", "stats-slots",
                "determinism", "docs-sync", "obs-guards"]


def make_repo(tmp_path, files):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return str(tmp_path)


def codes_of(report):
    return sorted(f.code for f in report.findings)


# ---------------------------------------------------------------------------
# non-vacuity: every checker fires on a seeded violation
# ---------------------------------------------------------------------------


def test_snapshot_checker_fires(tmp_path):
    root = make_repo(tmp_path, {
        "src/repro/snapshot.py": """\
            class SnapshotMixin:
                _SNAPSHOT_EXCLUDE = ()
            """,
        "src/repro/memory/widget.py": """\
            from repro.snapshot import SnapshotMixin

            class Widget(SnapshotMixin):
                _SNAPSHOT_EXCLUDE = ("cfg", "ghost")

                def __init__(self, cfg, stats):
                    self.cfg = cfg
                    self.stats = stats
                    self.rows = []
            """,
    })
    report = run_lint(root=root, select=["snapshot-completeness"])
    assert codes_of(report) == ["stale-exclude", "unsnapshotted-wiring"]
    wiring = [f for f in report.findings
              if f.code == "unsnapshotted-wiring"][0]
    assert wiring.symbol == "Widget.stats"
    stale = [f for f in report.findings if f.code == "stale-exclude"][0]
    assert stale.symbol == "Widget.ghost"


def test_snapshot_checker_handles_exclude_extension(tmp_path):
    """Base._SNAPSHOT_EXCLUDE + ("extra",) composes with inheritance,
    and inherited exclusions cover inherited __init__ wiring."""
    root = make_repo(tmp_path, {
        "src/repro/snapshot.py": """\
            class SnapshotMixin:
                _SNAPSHOT_EXCLUDE = ()
            """,
        "src/repro/memory/widget.py": """\
            from repro.snapshot import SnapshotMixin

            class Base(SnapshotMixin):
                _SNAPSHOT_EXCLUDE = ("cfg", "stats")

                def __init__(self, cfg, stats):
                    self.cfg = cfg
                    self.stats = stats

            class Derived(Base):
                _SNAPSHOT_EXCLUDE = Base._SNAPSHOT_EXCLUDE + ("hooks",)

                def __init__(self, cfg, stats):
                    super().__init__(cfg, stats)
                    self.hooks = []
            """,
    })
    report = run_lint(root=root, select=["snapshot-completeness"])
    assert report.clean, report.render_text()


def test_snapshot_checker_skips_bespoke_protocols(tmp_path):
    root = make_repo(tmp_path, {
        "src/repro/snapshot.py": """\
            class SnapshotMixin:
                _SNAPSHOT_EXCLUDE = ()
            """,
        "src/repro/memory/widget.py": """\
            from repro.snapshot import SnapshotMixin

            class Custom(SnapshotMixin):
                def __init__(self, stats):
                    self.stats = stats

                def snapshot_state(self):
                    return {}
            """,
    })
    report = run_lint(root=root, select=["snapshot-completeness"])
    assert report.clean, report.render_text()


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
    report = run_lint(root=root, select=["proof-purity"])
    assert codes_of(report) == ["attr-assign", "aug-assign",
                                "mutating-call"]
    assert all(f.symbol == "Cache.probe_line"
               for f in report.findings), report.render_text()


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
    report = run_lint(root=root, select=["proof-purity"])
    assert codes_of(report) == ["mutating-call", "mutating-call"]


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
    report = run_lint(root=root, select=["stats-slots"])
    assert codes_of(report) == ["late-intern", "string-bump"]
    # analysis/stats.py is exempt on both rules; __init__ interning ok.
    assert all(f.path == "src/repro/memory/cache.py"
               for f in report.findings)


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
    report = run_lint(root=root, select=["determinism"])
    assert codes_of(report) == sorted([
        "wall-clock", "entropy", "global-random", "unseeded-random"])


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
    report = run_lint(root=root, select=["docs-sync"])
    assert codes_of(report) == sorted([
        "broken-link", "broken-anchor", "unmapped-page",
        "taxonomy-drift"])
    drift = [f for f in report.findings
             if f.code == "taxonomy-drift"][0]
    assert drift.symbol == "bogus-row"
    orphan = [f for f in report.findings
              if f.code == "unmapped-page"][0]
    assert orphan.symbol == "orphan.md"


# ---------------------------------------------------------------------------
# engine: selection, baseline, JSON, CLI
# ---------------------------------------------------------------------------

DIRTY_SIM = {
    "src/repro/sim/clocky.py": """\
        import time

        def stamp():
            return time.time()
        """,
}


def test_select_and_ignore(tmp_path):
    root = make_repo(tmp_path, dict(DIRTY_SIM))
    both = run_lint(root=root,
                    select=["determinism", "stats-slots"])
    assert both.checkers == ["determinism", "stats-slots"]
    ignored = run_lint(root=root,
                       select=["determinism", "stats-slots"],
                       ignore=["determinism"])
    assert ignored.checkers == ["stats-slots"]


def test_unknown_checker_raises_with_suggestions(tmp_path):
    from repro.registry import UnknownComponentError
    root = make_repo(tmp_path, dict(DIRTY_SIM))
    with pytest.raises(UnknownComponentError) as exc:
        run_lint(root=root, select=["determinsim"])
    assert "determinism" in str(exc.value)


def test_baseline_suppresses_and_reports_unused(tmp_path):
    root = make_repo(tmp_path, dict(DIRTY_SIM, **{
        "lint-baseline.toml": """\
            [[suppress]]
            checker = "determinism"
            path = "src/repro/sim/clocky.py"
            code = "wall-clock"
            reason = "fixture: wall clock never reaches payloads"

            [[suppress]]
            checker = "determinism"
            path = "src/repro/sim/gone.py"
            reason = "fixture: stale entry"
            """,
    }))
    report = run_lint(root=root, select=["determinism"])
    assert report.clean
    assert len(report.suppressed) == 1
    unused = report.unused_suppressions()
    assert [entry.path for entry in unused] == ["src/repro/sim/gone.py"]


def test_baseline_requires_reason(tmp_path):
    root = make_repo(tmp_path, dict(DIRTY_SIM, **{
        "lint-baseline.toml": """\
            [[suppress]]
            checker = "determinism"
            path = "src/repro/sim/clocky.py"
            """,
    }))
    with pytest.raises(BaselineError):
        run_lint(root=root, select=["determinism"])


def test_minimal_toml_parser_matches_subset():
    """The py3.10 fallback reader parses the emitted subset exactly."""
    text = ('# comment\n\n[[suppress]]\nchecker = "a"\npath = "b"\n'
            'reason = "because"\n\n[[suppress]]\nchecker = "c"\n'
            'path = "d"\ncode = "e"\nsymbol = "f"\nreason = "why"\n')
    entries = _parse_minimal(text, "test")
    assert [(e.checker, e.path, e.code, e.symbol) for e in entries] \
        == [("a", "b", "", ""), ("c", "d", "e", "f")]
    # The shipped baseline reads identically through either parser
    # (entry line numbers differ: tomllib does not report them).
    shipped = load_baseline(
        os.path.join(REPO_ROOT, "lint-baseline.toml"))
    with open(os.path.join(REPO_ROOT, "lint-baseline.toml")) as fh:
        fallback = _parse_minimal(fh.read(), "lint-baseline.toml")
    assert [dict(e.describe(), line=0) for e in shipped] \
        == [dict(e.describe(), line=0) for e in fallback]


def test_json_report_round_trip(tmp_path):
    root = make_repo(tmp_path, dict(DIRTY_SIM))
    report = run_lint(root=root, select=["determinism"])
    payload = json.loads(report_to_json(report))
    assert payload["version"] == 1
    assert payload["clean"] is False
    assert payload["checkers"] == ["determinism"]
    assert payload["counts"] == {"determinism": 1}
    (finding,) = payload["findings"]
    assert set(finding) == {"checker", "path", "line", "symbol",
                            "code", "message", "fingerprint"}
    assert finding["path"] == "src/repro/sim/clocky.py"
    assert finding["fingerprint"] == \
        "determinism:src/repro/sim/clocky.py:time.time:wall-clock"
    assert payload["suppressed"] == []
    assert payload["unused_suppressions"] == []


def test_syntax_errors_surface_as_findings(tmp_path):
    root = make_repo(tmp_path, {
        "src/repro/sim/broken.py": "def oops(:\n",
    })
    report = run_lint(root=root, select=["determinism"])
    assert [f.code for f in report.findings] == ["syntax-error"]
    assert report.findings[0].checker == "lintkit"


def test_cli_lint_exit_codes_and_json(tmp_path, capsys):
    from repro.cli import main
    root = make_repo(tmp_path, dict(DIRTY_SIM))
    assert main(["lint", "--root", root,
                 "--select", "determinism"]) == 1
    out = capsys.readouterr().out
    assert "determinism/wall-clock" in out
    assert main(["lint", "--root", root, "--select", "determinism",
                 "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert main(["lint", "--root", root,
                 "--select", "stats-slots", "--ignore",
                 "stats-slots"]) == 0
    assert main(["lint", "--root", root,
                 "--select", "no-such-checker"]) == 2
    assert "unknown lint 'no-such-checker'" \
        in capsys.readouterr().err


def test_plugin_checkers_participate(tmp_path):
    from repro.lintkit import LINTS, Checker

    class NoTabsChecker(Checker):
        name = "no-tabs"
        summary = "fixture checker: no tab characters in sources"
        contract = "fixture"

        def run(self, ctx):
            findings = []
            for path in ctx.python_files("src/repro"):
                for number, line in enumerate(
                        ctx.read(path).splitlines(), 1):
                    if "\t" in line:
                        findings.append(self.finding(
                            path, number, "tab character",
                            code="tab"))
            return findings

    root = make_repo(tmp_path, {
        "src/repro/sim/tabby.py": "x = 1\ny =\t2\n",
    })
    LINTS.add("no-tabs", NoTabsChecker, tags=("plugin",))
    try:
        report = run_lint(root=root, select=["no-tabs"])
        assert codes_of(report) == ["tab"]
        # Unselected runs include the plugin checker too.
        assert "no-tabs" in run_lint(root=root,
                                     ignore=ALL_CHECKERS).checkers
    finally:
        LINTS.remove("no-tabs")


# ---------------------------------------------------------------------------
# the real tree
# ---------------------------------------------------------------------------


def test_clean_tree_smoke():
    """All checkers, real repository, shipped baseline: zero
    unsuppressed findings and no dead baseline entries."""
    report = run_lint(root=REPO_ROOT)
    assert report.checkers == ALL_CHECKERS
    assert report.clean, report.render_text()
    assert not report.unused_suppressions()
    # The shipped baseline documents exactly the reviewed exceptions.
    assert [f.fingerprint() for f in report.suppressed] == [
        "determinism:src/repro/exp/cache.py:time.time:wall-clock"]


def test_lint_registry_describes_contracts():
    from repro.registry import component_registry
    registry = component_registry("lints")  # plural alias
    assert set(ALL_CHECKERS) <= set(registry.names())
    for name in ALL_CHECKERS:
        info = registry.describe(name)
        assert info["metadata"]["contract"], name
        assert info["metadata"]["codes"], name


def test_purity_checker_walks_the_real_proof_family():
    """Guard against the family scan going vacuous: the known
    proof/probe surface of the simulator must be visited."""
    from repro.lintkit.astutil import class_methods, iter_classes
    from repro.lintkit.checkers.purity import ProofPurityChecker, \
        in_family
    ctx = LintContext(REPO_ROOT)
    seen = set()
    for subdir in ProofPurityChecker.scope:
        for path in ctx.python_files(subdir):
            tree = ctx.tree(path)
            for cls in iter_classes(tree):
                for fname in class_methods(cls):
                    if in_family(fname):
                        seen.add("%s.%s" % (cls.name, fname))
    assert {"Core.next_event_cycle", "SharedMemory.access_block_proof",
            "BaseHierarchy.load_block_proof",
            "BaseHierarchy._probe_stall_bumps",
            "StridePrefetcher.peek", "Minion.probe"} <= seen
