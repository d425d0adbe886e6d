"""The component registry: spec strings, plugins, digest stability."""

import json

import pytest

from repro.defenses import DEFENSES, FIGURE_ORDER, registry
from repro.exp.spec import Sweep, resolve_defense, resolve_workload
from repro.registry import (
    SpecError,
    UnknownComponentError,
    component_registry,
    format_spec,
    normalize_spec,
    parse_spec,
)
from repro.registry import plugins
from repro.workloads.spec import WORKLOADS, get_workload

SCALE = 0.04


# ---------------------------------------------------------------------------
# spec-string grammar
# ---------------------------------------------------------------------------

def test_parse_bare_names():
    assert parse_spec("GhostMinion") == ("GhostMinion", {})
    assert parse_spec("MuonTrap-Flush") == ("MuonTrap-Flush", {})
    assert parse_spec("GhostMinion[All]") == ("GhostMinion[All]", {})
    assert parse_spec("  mcf  ") == ("mcf", {})


def test_parse_call_form_and_literals():
    name, kwargs = parse_spec(
        "pointer_chase(stride=128, footprint_kb=8192, branchy=False, "
        "name='x', weights=(1, 2))")
    assert name == "pointer_chase"
    assert kwargs == {"stride": 128, "footprint_kb": 8192,
                      "branchy": False, "name": "x", "weights": (1, 2)}
    # negative numbers are literals too
    assert parse_spec("k(x=-3)")[1] == {"x": -3}
    # Name() normalizes to the bare name
    assert parse_spec("Unsafe()") == ("Unsafe", {})


def test_format_spec_round_trip():
    for text in ("GhostMinion",
                 "MuonTrap(flush=True)",
                 "pointer_chase(footprint_kb=8192, stride=128)",
                 "k(s='a b', t=(1, 2), n=None)"):
        name, kwargs = parse_spec(text)
        normalized = format_spec(name, kwargs)
        assert parse_spec(normalized) == (name, kwargs)
        # normalization is a fixed point
        assert normalize_spec(normalized) == normalized


def test_normalize_sorts_keys():
    assert (normalize_spec("k(b=2,a=1)") == normalize_spec("k(a=1, b=2)")
            == "k(a=1, b=2)")


@pytest.mark.parametrize("bad", [
    "", "   ", "k(", "k)", "k(x=)", "k(1)", "k(x=1; y=2)",
    "k(x=1, x=2)",                       # duplicate keyword
    "k(x, y=1)",                         # positional argument
    "k(**d)",                            # ** expansion
    "k(x=foo)",                          # bare name value
    "k(x=os.path)",                      # attribute access
    "k(x=__import__('os'))",             # call in value
    "k(x=open('/etc/passwd'))",          # call in value
    "k(x=[i for i in range(9)])",        # comprehension
    "k(x=f'{1}')",                       # f-string
    "a+b", "k()(x=1)",
])
def test_injection_unsafe_and_bad_syntax_rejected(bad):
    with pytest.raises(SpecError):
        parse_spec(bad)


def test_unknown_kwargs_rejected_with_accepted_list():
    with pytest.raises(SpecError, match="flash"):
        resolve_defense("MuonTrap(flash=True)")
    with pytest.raises(SpecError, match="accepted"):
        resolve_workload("pointer_chase(strid=128)")
    # named workloads take no parameters at all
    with pytest.raises((SpecError, ValueError)):
        resolve_workload("mcf(stride=128)")


@pytest.mark.parametrize("spec,message", [
    ("MuonTrap(flush=3)", "'flush' must be True or False"),
    ("MuonTrap(flush=1)", "'flush' must be True or False"),
    ("MuonTrap(flush='yes')", "'flush' must be True or False"),
    ("MuonTrap(l0_assoc=True)", "'l0_assoc' must be an integer or None"),
    ("MuonTrap(l0_assoc=2.0)", "'l0_assoc' must be an integer or None"),
    ("GhostMinion(async_reload=0)", "'async_reload' must be True, False"),
])
def test_spec_kwargs_checked_against_annotations(spec, message):
    """A value of the wrong type would build a behaviour-identical
    point under a different digest (``flush=3`` vs ``flush=True``)."""
    with pytest.raises(SpecError, match=message):
        resolve_defense(spec)


def test_well_typed_spec_kwargs_accepted():
    resolve_defense("MuonTrap(flush=True, l0_assoc=None)")
    resolve_defense("MuonTrap(l0_size_bytes=1024, l0_assoc=2)")
    resolve_defense("GhostMinion(async_reload=None)")
    assert resolve_workload("pointer_chase(stride=128, branchy=False)")
    with pytest.raises(SpecError, match="'stride' must be an integer"):
        resolve_workload("pointer_chase(stride=True)")


# ---------------------------------------------------------------------------
# lookup errors: did-you-mean + KeyError compatibility
# ---------------------------------------------------------------------------

def test_unknown_component_suggestions():
    with pytest.raises(UnknownComponentError) as excinfo:
        resolve_defense("GhostMinon")
    message = str(excinfo.value)
    assert "GhostMinion" in message and "did you mean" in message
    assert isinstance(excinfo.value, KeyError)
    with pytest.raises(KeyError, match="did you mean"):
        resolve_workload("hmmmer")
    with pytest.raises(KeyError):
        get_workload("doom")


def test_registry_compat_view():
    assert set(FIGURE_ORDER) <= set(registry)
    assert len(registry) == len(DEFENSES)
    for name in ["Unsafe"] + FIGURE_ORDER:
        assert registry[name]().name == name
    with pytest.raises(KeyError):
        registry["NotADefense"]


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        DEFENSES.add("Unsafe", lambda: None)


# ---------------------------------------------------------------------------
# construction semantics
# ---------------------------------------------------------------------------

def test_parameterized_defense_keeps_canonical_name():
    flush = resolve_defense("MuonTrap(flush=True)")
    assert flush.name == "MuonTrap-Flush"          # factory-chosen name
    assert flush.spec == "MuonTrap(flush=True)"
    assert flush.hierarchy_kwargs == {"flush_on_squash": True}
    plain = resolve_defense("MuonTrap-Flush")
    assert plain.spec is None                       # plain construction
    assert plain.hierarchy_kwargs == flush.hierarchy_kwargs


def test_parameterized_defense_gets_spec_display_name():
    d = resolve_defense("Custom(hierarchy='muontrap', "
                        "flush_on_squash=True)")
    assert d.name == "Custom(flush_on_squash=True, "\
                     "hierarchy='muontrap')"
    assert d.hierarchy_cls.__name__ == "MuonTrapHierarchy"


def test_synthetic_workload_named_after_spec():
    w = resolve_workload("pointer_chase(stride=128, footprint_kb=512)")
    assert w.name == "pointer_chase(footprint_kb=512, stride=128)"
    assert w.suite == "synthetic"
    assert w.params["nodes"] == 512 * 1024 // 128
    programs = w.build(0.05)
    assert len(programs) == 1 and len(programs[0].instrs) > 0


def test_synthetic_workload_spellings_share_digest():
    a = Sweep(workloads=["pointer_chase(stride=128, footprint_kb=512)"],
              defenses=["Unsafe"], scale=SCALE).points()[0]
    b = Sweep(workloads=["pointer_chase(footprint_kb=512,stride=128)"],
              defenses=["Unsafe"], scale=SCALE).points()[0]
    assert a.digest() == b.digest()


def test_workload_suite_tags():
    assert "mcf" in WORKLOADS.names(tag="spec2006")
    assert "canneal" in WORKLOADS.names(tag="parsec")
    assert set(WORKLOADS.names(tag="synthetic")) >= {
        "pointer_chase", "stream", "indirect", "random_access",
        "compute", "mixed"}


def test_describe_introspection():
    info = DEFENSES.describe("MuonTrap(flush=True)")
    assert info["kind"] == "defense"
    assert info["spec"] == "MuonTrap(flush=True)"
    assert any(row["name"] == "flush" for row in info["params"])
    # describing validates kwargs without constructing
    with pytest.raises(SpecError):
        DEFENSES.describe("MuonTrap(flash=True)")
    preds = component_registry("predictors")  # plural alias
    assert {"tournament", "bimodal"} <= set(preds.names())


# ---------------------------------------------------------------------------
# cache-digest stability across the registry migration
# ---------------------------------------------------------------------------

# The exact non-code cache token of hmmer::GhostMinion::base at scale
# 0.04, captured from the pre-registry engine (PR 2).  Any drift here
# orphans every accumulated on-disk cache entry.
GOLDEN_TOKEN_PR2 = (
    '{"config":{"core":{"commit_width":8,"fetch_width":8,"fp_alus":4,'
    '"int_alus":6,"iq_entries":64,"issue_width":8,"lq_entries":32,'
    '"mispredict_penalty":8,"muldiv_units":2,"predictor":{'
    '"btb_entries":4096,"choice_entries":8192,"global_entries":8192,'
    '"local_entries":2048,"ras_entries":16},"rob_entries":192,'
    '"sq_entries":32,"strict_fu_order":false},"cores":1,"dram":{'
    '"banks":8,"base_latency":80,"nonspec_open_only":false,'
    '"open_page":true,"row_bits":12,"row_hit_latency":40},'
    '"iprefetch_into_minion":false,"l1d":{"assoc":2,"latency":2,'
    '"line_bytes":64,"mshrs":4,"size_bytes":65536},"l1i":{"assoc":2,'
    '"latency":2,"line_bytes":64,"mshrs":4,"size_bytes":32768},"l2":{'
    '"assoc":8,"latency":20,"line_bytes":64,"mshrs":20,'
    '"size_bytes":2097152},"l2_mshr_partitioning":false,'
    '"l2_prefetcher":true,"minion_d":{"assoc":2,"async_reload":false,'
    '"line_bytes":64,"size_bytes":2048,"timeless":false},"minion_i":{'
    '"assoc":2,"async_reload":false,"line_bytes":64,'
    '"size_bytes":2048,"timeless":false},"model_tlb":false,'
    '"prefetcher_rpt_entries":64,"tlb":{"l1_assoc":4,"l1_entries":64,'
    '"l2_assoc":8,"l2_entries":1024,"l2_latency":8,"minion_assoc":2,'
    '"minion_entries":16,"page_bits":12,"walk_latency":40}},'
    '"defense":{"early_commit":false,"epoch_timestamps":false,'
    '"hierarchy":"repro.defenses.ghostminion.GhostMinionHierarchy",'
    '"hierarchy_kwargs":{"async_reload":null,"coherence_ext":true,'
    '"dminion":true,"iminion":true,"prefetch_ext":true,'
    '"timeless":false},"name":"GhostMinion","strict_fu_order":false,'
    '"taint_mode":"none","train_predictor_at_commit":true,'
    '"validation_mode":"none"},"max_cycles":5000000,"max_insts":null,'
    '"scale":0.04,"version":1,"workload":{"base_iters":1600,'
    '"kernel":"stream","name":"hmmer","params":{"footprint_lines":256,'
    '"stride_lines":1},"suite":"spec2006","threads":1}}')


def _token_sans_code(point):
    token = point.cache_token()
    del token["code"]                # folds in every source edit
    return json.dumps(token, sort_keys=True, separators=(",", ":"),
                      default=str)


def test_plain_name_token_byte_identical_to_pr2():
    point = Sweep(workloads=["hmmer"], defenses=["GhostMinion"],
                  scale=SCALE).points()[0]
    assert _token_sans_code(point) == GOLDEN_TOKEN_PR2


def test_plain_name_sweep_tokens_carry_no_spec_or_predictor_kind():
    points = Sweep(workloads=["hmmer", "mcf"],
                   defenses=["Unsafe"] + FIGURE_ORDER,
                   scale=SCALE).points()
    for point in points:
        token = point.cache_token()
        assert "spec" not in token["defense"], point.key
        assert "kind" not in token["config"]["core"]["predictor"], \
            point.key


def test_parameterized_spec_digests_differ_from_plain():
    plain = Sweep(workloads=["hmmer"], defenses=["MuonTrap-Flush"],
                  scale=SCALE).points()[0]
    spec = Sweep(workloads=["hmmer"], defenses=["MuonTrap(flush=True)"],
                 scale=SCALE).points()[0]
    assert spec.cache_token()["defense"]["spec"] == \
        "MuonTrap(flush=True)"
    assert plain.digest() != spec.digest()


def test_non_default_predictor_kind_enters_digest():
    from repro.exp.spec import ConfigVariant
    base = Sweep(workloads=["hmmer"], defenses=["Unsafe"],
                 scale=SCALE).points()[0]
    swapped = Sweep(workloads=["hmmer"], defenses=["Unsafe"],
                    scale=SCALE,
                    variants=[ConfigVariant.make(
                        "bimodal",
                        {"core.predictor.kind": "bimodal"})]).points()[0]
    token = swapped.cache_token()
    assert token["config"]["core"]["predictor"]["kind"] == "bimodal"
    assert base.digest() != swapped.digest()


# ---------------------------------------------------------------------------
# predictor swapping end-to-end
# ---------------------------------------------------------------------------

def test_predictor_kind_swaps_implementation():
    from repro.config import default_config
    from repro.sim.runner import run_workload
    cfg = default_config()
    cfg.core.predictor.kind = "bimodal"
    result = run_workload("hmmer", "Unsafe", scale=SCALE, cfg=cfg)
    assert result.finished
    default = run_workload("hmmer", "Unsafe", scale=SCALE)
    assert default.finished
    # both simulate the same instruction stream
    assert result.insts == default.insts


def test_unknown_predictor_kind_fails_loudly():
    from repro.config import PredictorConfig
    from repro.pipeline.branch_predictor import make_predictor
    from repro.analysis.stats import Stats
    cfg = PredictorConfig(kind="neural")
    with pytest.raises(UnknownComponentError, match="predictor"):
        make_predictor(cfg, Stats())


# ---------------------------------------------------------------------------
# plugins
# ---------------------------------------------------------------------------

PLUGIN_SOURCE = '''
from repro.registry import component_registry

DEFENSES = component_registry("defense")

@DEFENSES.register("PluginNop", tags=("plugin",))
def plugin_nop(strict=False):
    """A do-nothing plugin defense (test fixture)."""
    from repro.defenses.base import Defense
    return Defense(name="PluginNop", strict_fu_order=strict)
'''


@pytest.fixture
def plugin_file(tmp_path, monkeypatch):
    path = tmp_path / "my_plugin.py"
    path.write_text(PLUGIN_SOURCE)
    monkeypatch.setenv(plugins.ENV_PLUGINS, str(path))
    plugins.reset()
    yield path
    DEFENSES.remove("PluginNop")
    plugins.reset()


def test_plugin_loaded_on_registry_miss(plugin_file):
    defense = resolve_defense("PluginNop(strict=True)")
    assert defense.name == "PluginNop(strict=True)"
    assert defense.strict_fu_order
    assert str(plugin_file) in plugins.loaded_plugins()
    # enumerable once loaded
    assert "PluginNop" in DEFENSES.names(tag="plugin")


def test_plugin_listed_in_env_and_cwd_loads_once(plugin_file,
                                                 monkeypatch):
    # REPRO_PLUGINS pointing at the same file twice (or at the local
    # repro_plugins.py) must not execute it twice: re-registration
    # would raise.
    import os
    monkeypatch.setenv(plugins.ENV_PLUGINS, os.pathsep.join(
        [str(plugin_file), str(plugin_file)]))
    plugins.reset()
    assert plugins.load_plugins() == [str(plugin_file)]


def test_plugin_module_name_deterministic_across_processes(plugin_file):
    # Plugin-defined classes pickle by module reference; spawn-start
    # workers re-load plugins and must recreate the same module name
    # (hashlib-keyed, not per-process hash()-keyed).
    import os
    import subprocess
    import sys
    resolve_defense("PluginNop")  # load in this process
    code = ("import sys; from repro.registry import plugins; "
            "plugins.load_plugins(); "
            "print([m for m in sys.modules if "
            "m.startswith('repro_plugin_')][0])")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH="src"))
    local = [m for m in sys.modules if m.startswith("repro_plugin_")]
    assert out.stdout.strip() in local


def test_broken_plugin_raises_plugin_error(tmp_path, monkeypatch):
    path = tmp_path / "broken.py"
    path.write_text("raise RuntimeError('boom')\n")
    monkeypatch.setenv(plugins.ENV_PLUGINS, str(path))
    plugins.reset()
    try:
        with pytest.raises(plugins.PluginError, match="boom"):
            plugins.load_plugins()
    finally:
        plugins.reset()


def test_engine_runs_plugin_defense(plugin_file, tmp_path):
    from repro.exp import run_sweep
    report = run_sweep(Sweep(workloads=["hmmer"],
                             defenses=["PluginNop"], scale=SCALE),
                       cache=str(tmp_path / "cache"))
    point = next(iter(report.results))
    assert point.defense == "PluginNop"
    assert point.cycles > 0
