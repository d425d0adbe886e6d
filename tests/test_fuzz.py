"""Differential config fuzzer (src/repro/fuzz, docs/fuzzing.md)."""

import dataclasses
import json
import keyword

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import fuzz
from repro.cli import main
from repro.defenses import DEFENSES
from repro.exp.engine import run_points
from repro.fuzz import replay_reproducer
from repro.fuzz.grammar import BOUNDS, FuzzPoint, RegistryChoice
from repro.registry import (SpecError, component_kinds,
                            component_registry, format_spec,
                            normalize_spec, parse_spec)
from repro.sim.simulator import Simulator, dense_loop_forced

#: Every registered component name across every kind — the population
#: the round-trip property quantifies over (brackets included:
#: GhostMinion[DMinion] must survive the grammar).
ALL_COMPONENT_NAMES = sorted({
    name for kind in component_kinds()
    for name in component_registry(kind).names()})

#: Keyword-argument names: the domain format_spec accepts (identifiers
#: that are not Python keywords — ``Custom(as=None)`` cannot parse).
SPEC_KEYS = st.from_regex(r"[a-z_][a-z0-9_]{0,10}", fullmatch=True) \
    .filter(lambda key: not keyword.iskeyword(key))
SPEC_VALUES = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)


# -- satellite: property-based spec-grammar round trips -------------------

@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(),
       kwargs=st.dictionaries(SPEC_KEYS, SPEC_VALUES, max_size=4))
def test_spec_roundtrip_is_fixed_point(data, kwargs):
    name = data.draw(st.sampled_from(ALL_COMPONENT_NAMES))
    spec = format_spec(name, kwargs)
    parsed_name, parsed_kwargs = parse_spec(spec)
    assert parsed_name == name
    assert parsed_kwargs == kwargs
    # parse(render(parse(s))) fixed point
    assert parse_spec(format_spec(parsed_name, parsed_kwargs)) \
        == (name, kwargs)
    # normalization idempotent
    normalized = normalize_spec(spec)
    assert normalize_spec(normalized) == normalized


@pytest.mark.parametrize("key", ["as", "class", "None", "lambda", "1x",
                                 "a-b", "a b", ""])
def test_format_spec_rejects_non_keyword_names(key):
    with pytest.raises(SpecError, match="keyword-argument name"):
        format_spec("Custom", {key: None})


def test_normalize_sorts_kwargs_to_one_canonical_form():
    a = normalize_spec("pointer_chase(stride=128, iters=60)")
    b = normalize_spec("pointer_chase(iters=60, stride=128)")
    assert a == b


# -- generator: determinism, validity, coverage ---------------------------

def test_generate_is_deterministic():
    first = fuzz.generate(42, 25)
    second = fuzz.generate(42, 25)
    assert first == second
    assert len(first) == 25
    # different seeds draw different campaigns
    assert fuzz.generate(43, 25) != first


def test_generated_points_are_valid_and_labelled():
    for point in fuzz.generate(7, 12, budget=900):
        sweep_point = point.build()  # raises on invalid points
        assert sweep_point.max_insts == 900
        assert point.label.startswith("fuzz-7-")
        assert len(point.overrides) <= 3


def test_every_defense_family_covered_in_100_draws():
    points = fuzz.generate(42, 100)
    drawn = {parse_spec(point.defense)[0] for point in points}
    assert drawn >= set(DEFENSES.names())


def test_fuzz_point_dict_round_trip():
    point = fuzz.generate(3, 2)[1]
    assert FuzzPoint.from_dict(
        json.loads(json.dumps(point.as_dict()))) == point


def test_bounds_table_values_all_validate():
    fuzz.check_bounds_table()  # raises on a stale path or bad menu
    kinds = [v for v in BOUNDS.values()
             if isinstance(v, RegistryChoice)]
    assert any(choice.kind == "predictor" for choice in kinds)
    assert "tournament" in RegistryChoice("predictor").values()


def test_bounds_table_covers_post_v1_leaves_and_names_only_leaves(
        monkeypatch):
    from repro.fuzz import grammar
    trimmed = {path: menu for path, menu in BOUNDS.items()
               if path != "core.predictor.kind"}
    monkeypatch.setattr(grammar, "BOUNDS", trimmed)
    with pytest.raises(ValueError, match="core.predictor.kind"):
        fuzz.check_bounds_table()
    for stale in ("core.bogus", "core"):
        monkeypatch.setattr(grammar, "BOUNDS",
                            dict(BOUNDS, **{stale: (1,)}))
        with pytest.raises(ValueError, match=stale):
            fuzz.check_bounds_table()


# -- oracles --------------------------------------------------------------

def _tiny_point(**over):
    base = dict(seed=1, index=0, workload="stream(iters=60)",
                defense="GhostMinion", budget=800)
    base.update(over)
    return FuzzPoint(**base)


def test_regs_digest_populated_and_stable():
    sweep_point = _tiny_point().build()
    first = run_points([sweep_point], jobs=1, cache=False)
    second = run_points([dataclasses.replace(sweep_point)],
                        jobs=1, cache=False)
    a = first.results.get(sweep_point.key)
    b = second.results.get(sweep_point.key)
    assert a.regs_digest is not None
    assert a.regs_digest == b.regs_digest
    # runtime metadata: never part of the canonical JSON
    assert "regs_digest" not in a.to_json_dict()


def test_dense_event_oracle_passes_on_healthy_point():
    oracle = fuzz.resolve_oracle("dense-event", jobs=1)
    verdicts = oracle.check([_tiny_point()])
    assert [v.ok for v in verdicts] == [True]
    assert verdicts[0].oracle == "dense-event"


def test_checkpoint_oracle_passes_on_healthy_point():
    oracle = fuzz.resolve_oracle("checkpoint", jobs=1)
    verdicts = oracle.check([_tiny_point()])
    assert [v.ok for v in verdicts] == [True]


def test_checkpoint_oracle_catches_a_broken_restore(monkeypatch):
    """A restore that loses the L1D's in-flight misses runs on
    differently: the oracle fails the point and names what differs."""
    restore = Simulator.restore
    dropped = []

    def lossy_restore(cls, blob):
        sim = restore(blob)
        mshrs = sim.cores[0].hierarchy.dport.mshrs
        dropped.append(mshrs.occupancy())
        mshrs.release()
        return sim

    monkeypatch.setattr(Simulator, "restore", classmethod(lossy_restore))
    (verdict,) = fuzz.resolve_oracle("checkpoint", jobs=1).check(
        [_tiny_point()])
    assert dropped[0] > 0
    assert not verdict.ok
    assert "cycles" in verdict.mismatch
    assert verdict.detail.startswith("cold vs restored differ on")


def test_unknown_oracle_has_suggestions():
    from repro.registry import UnknownComponentError
    with pytest.raises(UnknownComponentError) as excinfo:
        fuzz.resolve_oracle("dense-evnt")
    assert "dense-event" in str(excinfo.value)


# -- seeded divergence: catch, shrink, reproduce, replay ------------------

def _broken_dense_factory():
    """Test-only defense whose behaviour depends on the scheduler
    environment: GhostMinion under the dense loop, Unsafe under the
    event scheduler — a guaranteed dense-event divergence."""
    name = "GhostMinion" if dense_loop_forced() else "Unsafe"
    defense = DEFENSES.create(name)
    defense.name = "BrokenDense"
    return defense


@pytest.fixture
def broken_dense():
    DEFENSES.add("BrokenDense", _broken_dense_factory, tags=("test",),
                 summary="test-only: diverges across schedulers")
    yield "BrokenDense"
    DEFENSES.remove("BrokenDense")


def test_broken_component_caught_shrunk_and_replayed(
        broken_dense, tmp_path):
    oracle = fuzz.resolve_oracle("dense-event", jobs=1)
    # A deliberately noisy point: the divergence is in the defense, so
    # shrinking must strip the overrides and workload decoration.
    point = FuzzPoint(
        seed=9, index=0,
        workload="pointer_chase(branchy=False, iters=60)",
        defense=broken_dense,
        overrides=(("core.rob_entries", 96), ("l1d.mshrs", 2)),
        budget=900)
    verdicts = oracle.check([point])
    assert not verdicts[0].ok
    assert verdicts[0].mismatch  # field-level diff names the culprit

    minimal = fuzz.shrink(point, oracle)
    assert len(minimal.overrides) <= 3
    assert minimal.overrides == ()        # all overrides were noise
    assert parse_spec(minimal.defense)[0] == broken_dense
    assert parse_spec(minimal.workload)[1] == {}

    path = fuzz.write_reproducer(minimal, "dense-event",
                                 str(tmp_path),
                                 detail=verdicts[0].detail)
    replayed = replay_reproducer(path, jobs=1)
    assert not replayed.ok
    assert replayed.point == minimal
    # the CLI replay path agrees and exits nonzero
    assert main(["fuzz", "--repro", path, "--jobs", "1"]) == 1


def test_campaign_writes_reproducer_for_divergence(
        broken_dense, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    report = fuzz.run_campaign(
        seed=5, count=0, oracle_names=("dense-event",), budget=900,
        jobs=1, corpus_dir=str(corpus))
    assert report.ok and report.reproducers == []

    oracle = fuzz.resolve_oracle("dense-event", jobs=1)
    point = FuzzPoint(seed=5, index=0, workload="stream(iters=60)",
                      defense=broken_dense, budget=900)
    verdict = oracle.check([point])[0]
    assert not verdict.ok
    path = fuzz.write_reproducer(point, "dense-event", str(corpus))
    assert (corpus / path.split("/")[-1]).exists()
    reloaded_point, oracle_name = fuzz.load_reproducer(path)
    assert reloaded_point == point and oracle_name == "dense-event"


# -- CLI ------------------------------------------------------------------

def test_cli_fuzz_json_deterministic(tmp_path, capsys):
    argv = ["fuzz", "--seed", "42", "--count", "2", "--budget", "700",
            "--jobs", "1", "--json", "--corpus", str(tmp_path)]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
    assert first["ok"] is True
    assert first["passed"] == 2 and first["failed"] == 0


def test_cli_fuzz_unknown_oracle_suggests(capsys):
    assert main(["fuzz", "--oracle", "dense-evnt"]) == 2
    assert "dense-event" in capsys.readouterr().err


def test_cli_fuzz_repro_conflicts_with_generation_flags(capsys):
    assert main(["fuzz", "--repro", "x.json", "--seed", "1"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert main(["fuzz", "--repro", "x.json", "--count", "5"]) == 2
    assert "--count" in capsys.readouterr().err


def test_cli_fuzz_unreadable_reproducer(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["fuzz", "--repro", missing]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_fuzz_reproducer_of_removed_oracle(tmp_path, capsys):
    """A reproducer recorded under an oracle that no longer exists (the
    retired ``accel`` one) exits 2 with the registry's message."""
    from repro.registry import UnknownComponentError
    path = fuzz.write_reproducer(_tiny_point(), "accel", str(tmp_path))
    with pytest.raises(UnknownComponentError) as excinfo:
        fuzz.resolve_oracle("accel")
    assert main(["fuzz", "--repro", path]) == 2
    assert capsys.readouterr().err == "error: %s\n" % excinfo.value
