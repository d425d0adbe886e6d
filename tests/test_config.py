"""System configuration (Table 1) and the config schema it carries."""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import test_registry
from repro.config import (
    CacheConfig,
    MinionConfig,
    SystemConfig,
    config_leaves,
    default_config,
    line_of,
    table1_rows,
)
from repro.exp.spec import apply_overrides
from repro.fuzz.grammar import BOUNDS

LEAVES = config_leaves()


def test_default_matches_table1():
    cfg = default_config()
    assert cfg.core.rob_entries == 192
    assert cfg.core.iq_entries == 64
    assert cfg.core.lq_entries == 32
    assert cfg.core.sq_entries == 32
    assert cfg.core.fetch_width == 8
    assert cfg.l1i.size_bytes == 32 * 1024 and cfg.l1i.mshrs == 4
    assert cfg.l1d.size_bytes == 64 * 1024 and cfg.l1d.latency == 2
    assert cfg.l2.size_bytes == 2 * 1024 * 1024 and cfg.l2.mshrs == 20
    assert cfg.minion_d.size_bytes == 2048 and cfg.minion_d.assoc == 2
    assert cfg.core.predictor.local_entries == 2048
    assert cfg.core.predictor.global_entries == 8192
    assert cfg.core.predictor.btb_entries == 4096
    assert cfg.core.predictor.ras_entries == 16


def test_cache_geometry():
    cache = CacheConfig(64 * 1024, 2, 2, 4)
    assert cache.num_lines == 1024
    assert cache.num_sets == 512


def test_minion_geometry():
    minion = MinionConfig(2048, 2)
    assert minion.num_lines == 32
    assert minion.num_sets == 16


@pytest.mark.parametrize("kwargs", [
    dict(size_bytes=100, assoc=2, latency=2, mshrs=4),   # not line mult
    dict(size_bytes=64, assoc=2, latency=2, mshrs=4),    # < one set
    dict(size_bytes=1024, assoc=2, latency=0, mshrs=4),  # bad latency
    dict(size_bytes=1024, assoc=2, latency=2, mshrs=0),  # no MSHRs
])
def test_cache_validation(kwargs):
    with pytest.raises(ValueError):
        CacheConfig(**kwargs).validate()


@pytest.mark.parametrize("path", ["l1i", "l1d", "l2", "minion_d",
                                  "minion_i"])
@pytest.mark.parametrize("line_bytes", [32, 128])
def test_line_bytes_is_fixed_at_the_modelled_line(path, line_bytes):
    """Addresses always map by LINE_BYTES-byte lines; another
    ``line_bytes`` would only rescale the line count."""
    cfg = apply_overrides(default_config(),
                          {path + ".line_bytes": line_bytes})
    with pytest.raises(ValueError,
                       match=re.escape(path + ".line_bytes: ")):
        cfg.validate()


def test_system_validation():
    cfg = default_config()
    cfg.cores = 0
    with pytest.raises(ValueError):
        cfg.validate()


def test_copy_is_deep_for_nested_configs():
    cfg = default_config()
    copy = cfg.copy()
    copy.minion_d.size_bytes = 128
    copy.core.rob_entries = 16
    assert cfg.minion_d.size_bytes == 2048
    assert cfg.core.rob_entries == 192


def test_line_of():
    assert line_of(0) == 0
    assert line_of(63) == 0
    assert line_of(64) == 1


def test_table1_rows_render():
    rows = table1_rows()
    labels = [label for label, _ in rows]
    assert "L1 DCache" in labels
    assert "D/I GhostMinions" in labels
    joined = " ".join(text for _, text in rows)
    assert "192-Entry ROB" in joined
    assert "2KiB" in joined


# ---------------------------------------------------------------------------
# the schema: leaf metadata against the golden token and the fuzz grammar
# ---------------------------------------------------------------------------

def _golden_config_paths():
    token = json.loads(test_registry.GOLDEN_TOKEN_PR2)

    def walk(node, prefix=""):
        for key, value in node.items():
            if isinstance(value, dict):
                yield from walk(value, prefix + key + ".")
            else:
                yield prefix + key

    return set(walk(token["config"]))


def test_v1_leaves_are_the_golden_token_config_keys():
    """Leaves without ``since`` are exactly the v1 token's config keys:
    a knob added without ``since``, a v1 leaf removed or renamed, and a
    ``since`` mark dropped from a post-v1 leaf all fail here."""
    v1 = {leaf.path for leaf in LEAVES if leaf.since == 1}
    assert v1 == _golden_config_paths()


def test_post_v1_leaves_have_fuzz_bounds():
    post_v1 = {leaf.path for leaf in LEAVES if leaf.since > 1}
    assert post_v1 == {"core.predictor.kind"}
    assert post_v1 <= set(BOUNDS)


def test_every_leaf_is_a_scalar_and_every_int_has_a_bound():
    for leaf in LEAVES:
        assert leaf.type in (bool, int, str), leaf.path
        if leaf.type is int:
            assert leaf.min is not None, leaf.path
            assert leaf.default >= leaf.min, leaf.path


#: sha256 of ``[p.as_dict() for p in fuzz.generate(seed, 40)]`` (JSON,
#: sorted keys) with only the builtin components registered.  Guards
#: rejection sampling against validation changes.
FUZZ_PINS = {
    0: "61c555c6315e9c4f6dfb295400310a1f56a8d549b7e16c2f0cffca869902daf5",
    7: "b20619d441b30d7b83caa2651bf5bbb71bca3f716e7bada0bc5867ba10449169",
}


def test_fuzz_generation_is_pinned(tmp_path):
    # A fresh process in an empty directory, so no plugin (from
    # REPRO_PLUGINS, ./repro_plugins.py, or one a registry test loaded
    # into this process) joins the families the generator draws.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    code = ("import hashlib, json; from repro import fuzz\n"
            "for seed in %r:\n"
            "    points = [p.as_dict() for p in fuzz.generate(seed, 40)]\n"
            "    text = json.dumps(points, sort_keys=True)\n"
            "    print(seed, hashlib.sha256(text.encode()).hexdigest())\n"
            % (sorted(FUZZ_PINS),))
    env = {key: value for key, value in os.environ.items()
           if key != "REPRO_PLUGINS"}
    env["PYTHONPATH"] = os.path.abspath(src)
    out = subprocess.run([sys.executable, "-c", code], cwd=str(tmp_path),
                         env=env, capture_output=True, text=True,
                         check=True).stdout
    got = dict(line.split() for line in out.splitlines())
    assert got == {str(seed): pin for seed, pin in FUZZ_PINS.items()}


# ---------------------------------------------------------------------------
# validation and copying walk the schema
# ---------------------------------------------------------------------------

def _bad_values(leaf):
    if leaf.type is bool:
        return [1, 0, "true", None]
    if leaf.type is int:
        return [True, "abc", 2.0, None, leaf.min - 1]
    return [5, None]


@pytest.mark.parametrize("leaf", LEAVES, ids=lambda leaf: leaf.path)
def test_validate_rejects_ill_typed_and_out_of_range_leaves(leaf):
    for value in _bad_values(leaf):
        cfg = apply_overrides(default_config(), {leaf.path: value})
        with pytest.raises(ValueError, match=re.escape(leaf.path)):
            cfg.validate()


@pytest.mark.parametrize("path", ["core", "core.predictor", "l1d",
                                  "minion_i", "tlb"])
def test_validate_rejects_a_value_in_place_of_a_section(path):
    cfg = apply_overrides(default_config(), {path: 3})
    with pytest.raises(ValueError, match=re.escape(path) + " must be a"):
        cfg.validate()


def _other_value(leaf):
    if leaf.type is bool:
        return not leaf.default
    if leaf.type is int:
        return leaf.default + 1
    return leaf.default + "-x"


def test_overrides_never_touch_the_base_config():
    base = default_config()
    for leaf in LEAVES:
        cfg = apply_overrides(base, {leaf.path: _other_value(leaf)})
        assert cfg != base, leaf.path
        assert base == default_config(), leaf.path


def _sections(cfg, path="cfg"):
    yield path, cfg
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            yield from _sections(value, path + "." + f.name)


def test_copy_shares_no_section_at_any_depth():
    cfg = default_config()
    originals = {id(section) for _, section in _sections(cfg)}
    copied = list(_sections(cfg.copy()))
    assert len(copied) == len(originals) == 10
    for path, section in copied:
        assert id(section) not in originals, path
    assert cfg.copy() == cfg
