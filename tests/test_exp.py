"""The experiment engine: sweep expansion, caching, determinism."""

import dataclasses
import gc
import hashlib
import json
import os

import pytest

from repro.config import default_config
from repro.defenses import FIGURE_ORDER
from repro.defenses.ghostminion import ghostminion
from repro.exp import (
    ConfigVariant,
    RegionSampling,
    ResultCache,
    ResultSet,
    Sweep,
    apply_overrides,
    run_points,
    run_sweep,
    shard_points,
    variants_for_axis,
)
from repro.sim.runner import default_scale
from repro.workloads.spec import PARSEC, SPEC2006

SCALE = 0.04


def small_sweep(**overrides):
    kwargs = dict(name="t", workloads=["hmmer", "gamess"],
                  defenses=["Unsafe", "GhostMinion"], scale=SCALE)
    kwargs.update(overrides)
    return Sweep(**kwargs)


# ---------------------------------------------------------------------------
# sweep expansion
# ---------------------------------------------------------------------------

def test_sweep_expansion_order_and_keys():
    points = small_sweep().points()
    assert [p.key for p in points] == [
        "hmmer::Unsafe::base", "hmmer::GhostMinion::base",
        "gamess::Unsafe::base", "gamess::GhostMinion::base"]
    assert all(p.scale == SCALE for p in points)


def test_sweep_variant_expansion():
    variants = [ConfigVariant.make("big", {"minion_d.size_bytes": 4096}),
                ConfigVariant.make("small", {"minion_d.size_bytes": 128})]
    points = Sweep(workloads=["hmmer"], defenses=["GhostMinion"],
                   variants=variants, scale=SCALE).points()
    assert len(points) == 2
    assert points[0].config().minion_d.size_bytes == 4096
    assert points[1].config().minion_d.size_bytes == 128


def test_sweep_duplicate_keys_rejected():
    # Two distinct defense objects that share a display name collide.
    with pytest.raises(ValueError):
        Sweep(workloads=["hmmer"],
              defenses=[ghostminion(), ghostminion(async_reload=True)],
              scale=SCALE).points()


def test_sweep_unknown_workload_and_defense():
    with pytest.raises(KeyError):
        Sweep(workloads=["doom"], defenses=["Unsafe"]).points()
    with pytest.raises(KeyError):
        Sweep(workloads=["hmmer"], defenses=["NotADefense"]).points()


def test_variants_for_axis_cross_product():
    variants = variants_for_axis({
        "minion_d.size_bytes": [2048, 128],
        "dram.open_page": [True, False]})
    assert len(variants) == 4
    labels = [v.label for v in variants]
    assert "minion_d.size_bytes=2048,dram.open_page=True" in labels


def test_apply_overrides_rejects_unknown_path():
    cfg = default_config()
    with pytest.raises(AttributeError):
        apply_overrides(cfg, {"minion_d.size_bytez": 128})
    with pytest.raises(AttributeError):
        apply_overrides(cfg, {"not_a_field": 1})


def test_apply_overrides_does_not_mutate_base():
    cfg = default_config()
    new = apply_overrides(cfg, {"minion_d.size_bytes": 128})
    assert cfg.minion_d.size_bytes == 2048
    assert new.minion_d.size_bytes == 128


def test_scale_env_resolved_lazily(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.125")
    assert default_scale() == 0.125
    points = Sweep(workloads=["hmmer"], defenses=["Unsafe"]).points()
    assert points[0].scale == 0.125
    monkeypatch.delenv("REPRO_SCALE")
    assert default_scale() == 1.0


# ---------------------------------------------------------------------------
# cache behaviour
# ---------------------------------------------------------------------------

def test_cache_miss_then_hit(tmp_path):
    sweep = small_sweep()
    first = run_sweep(sweep, cache=str(tmp_path))
    assert first.cache_hits == 0
    assert first.executed == 4
    second = run_sweep(sweep, cache=str(tmp_path))
    assert second.cache_hits == 4
    assert second.executed == 0
    assert all(p.cached for p in second.results)
    assert (first.results.to_json() == second.results.to_json())


def test_cache_invalidated_by_config_change(tmp_path):
    base = Sweep(workloads=["hmmer"], defenses=["GhostMinion"],
                 scale=SCALE,
                 variants=[ConfigVariant.make(
                     "v", {"minion_d.size_bytes": 2048})])
    changed = Sweep(workloads=["hmmer"], defenses=["GhostMinion"],
                    scale=SCALE,
                    variants=[ConfigVariant.make(
                        "v", {"minion_d.size_bytes": 256})])
    run_sweep(base, cache=str(tmp_path))
    report = run_sweep(changed, cache=str(tmp_path))
    assert report.cache_hits == 0
    assert report.executed == 1
    # ... and the unchanged config still hits.
    again = run_sweep(base, cache=str(tmp_path))
    assert again.cache_hits == 1


def test_cache_invalidated_by_scale_and_defense(tmp_path):
    run_sweep(Sweep(workloads=["hmmer"], defenses=["GhostMinion"],
                    scale=SCALE), cache=str(tmp_path))
    rescaled = run_sweep(
        Sweep(workloads=["hmmer"], defenses=["GhostMinion"],
              scale=SCALE * 2), cache=str(tmp_path))
    assert rescaled.cache_hits == 0
    async_gm = ghostminion(async_reload=True)
    async_gm.name = "GhostMinion-async"
    other_defense = run_sweep(
        Sweep(workloads=["hmmer"], defenses=[async_gm], scale=SCALE),
        cache=str(tmp_path))
    assert other_defense.cache_hits == 0


def test_cache_survives_corrupt_entry(tmp_path):
    sweep = Sweep(workloads=["hmmer"], defenses=["Unsafe"], scale=SCALE)
    run_sweep(sweep, cache=str(tmp_path))
    cache = ResultCache(str(tmp_path))
    digest = sweep.points()[0].digest()
    with open(cache.path_for(digest), "w") as handle:
        handle.write("not json{")
    report = run_sweep(sweep, cache=str(tmp_path))
    assert report.cache_hits == 0 and report.executed == 1
    # the corrupt entry was rewritten
    assert run_sweep(sweep, cache=str(tmp_path)).cache_hits == 1


def test_cache_store_writes_one_shot_json_without_cycles(tmp_path):
    """store() encodes with json.dumps (the C encoder): the file holds
    exactly those bytes, and a write leaves nothing for the cyclic
    collector (json.dump's pure-Python encoder leaves ~33 objects)."""
    from repro.exp.cache import CACHE_SCHEMA_VERSION
    sweep = Sweep(workloads=["hmmer"], defenses=["Unsafe"], scale=SCALE)
    (result,) = run_sweep(sweep, cache=False).results
    cache = ResultCache(str(tmp_path))
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        cache.store(result)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
    payload = {"cache_version": CACHE_SCHEMA_VERSION,
               "result": result.to_json_dict()}
    with open(cache.path_for(result.digest), encoding="utf-8") as fh:
        assert fh.read() == json.dumps(payload, sort_keys=True)
    assert cache.lookup(result.digest).to_json_dict() \
        == result.to_json_dict()


def test_cache_invalidated_by_code_change(tmp_path, monkeypatch):
    """The digest folds in a source-tree fingerprint: simulator edits
    must not serve stale cached numbers."""
    import repro.exp.spec as spec_mod
    sweep = Sweep(workloads=["hmmer"], defenses=["Unsafe"], scale=SCALE)
    run_sweep(sweep, cache=str(tmp_path))
    monkeypatch.setattr(spec_mod, "_CODE_FINGERPRINT",
                        "0" * 64)  # simulate edited sources
    report = run_sweep(sweep, cache=str(tmp_path))
    assert report.cache_hits == 0 and report.executed == 1


def test_program_memo_not_aliased_by_name(tmp_path):
    """Distinct specs sharing a display name must not reuse each
    other's programs within one engine invocation."""
    from repro.workloads.spec import WorkloadSpec
    stream = WorkloadSpec(name="dup", suite="x", kernel="stream",
                          base_iters=400,
                          params={"footprint_lines": 256})
    chase = WorkloadSpec(name="dup", suite="x", kernel="pchase",
                         base_iters=400, params={"nodes": 1024})
    first = run_points(
        Sweep(workloads=[stream], defenses=["Unsafe"],
              scale=SCALE).points()).results
    second = run_points(
        Sweep(workloads=[stream], defenses=["Unsafe"],
              scale=SCALE).points()
        + Sweep(workloads=[chase], defenses=["GhostMinion"],
                scale=SCALE).points()).results
    chase_alone = run_points(
        Sweep(workloads=[chase], defenses=["GhostMinion"],
              scale=SCALE).points()).results
    assert (second.get("dup::Unsafe::base").cycles
            == first.get("dup::Unsafe::base").cycles)
    assert (second.get("dup::GhostMinion::base").cycles
            == chase_alone.get("dup::GhostMinion::base").cycles)


def test_cache_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    report = run_sweep(Sweep(workloads=["hmmer"], defenses=["Unsafe"],
                             scale=SCALE), cache=True)
    assert report.executed == 1
    assert os.path.isdir(str(tmp_path / "envcache"))


# ---------------------------------------------------------------------------
# determinism: parallel == serial, byte for byte
# ---------------------------------------------------------------------------

def test_parallel_matches_serial_byte_identical():
    sweep = small_sweep()
    serial = run_sweep(sweep, jobs=1)
    parallel = run_sweep(sweep, jobs=3)
    assert parallel.jobs == 3
    assert serial.results.to_json() == parallel.results.to_json()
    assert serial.results.to_json() == run_sweep(
        sweep, jobs=2).results.to_json()


def test_resultset_roundtrip_and_shapes():
    report = run_sweep(small_sweep())
    text = report.results.to_json(indent=2)
    clone = ResultSet.from_json(text)
    assert clone.to_json() == report.results.to_json()
    table = report.results.as_run_results()
    assert set(table) == {"hmmer", "gamess"}
    assert set(table["hmmer"]) == {"Unsafe", "GhostMinion"}
    run_result = table["hmmer"]["GhostMinion"]
    assert run_result.cycles > 0
    assert run_result.insts > 100
    assert 0 < run_result.ipc <= 8
    payload = json.loads(text)
    assert payload["format"] == 1


def test_resultset_roundtrip_with_cache_hit_flags(tmp_path):
    """The cached flag is runtime metadata: a fully cache-hit sweep
    serializes byte-identically to the original run, and the canonical
    form survives a from_json/to_json round trip either way."""
    sweep = small_sweep()
    executed = run_sweep(sweep, cache=str(tmp_path))
    cached = run_sweep(sweep, cache=str(tmp_path))
    assert not any(p.cached for p in executed.results)
    assert all(p.cached for p in cached.results)
    assert executed.results.to_json() == cached.results.to_json()
    clone = ResultSet.from_json(cached.results.to_json(indent=2))
    assert clone.to_json() == cached.results.to_json()
    # deserialized points are fresh canonical data, not cache hits
    assert not any(p.cached for p in clone)
    assert clone.cache_hits() == 0 and cached.results.cache_hits() == 4


def test_shard_partition_determinism():
    """All shards disjoint, union == full sweep, stable across runs."""
    points = small_sweep().points()
    shards = [shard_points(points, i, 3) for i in range(3)]
    keys = [p.key for shard in shards for p in shard]
    assert len(keys) == len(points)
    assert set(keys) == {p.key for p in points}
    again = [[p.key for p in shard_points(small_sweep().points(), i, 3)]
             for i in range(3)]
    assert again == [[p.key for p in shard] for shard in shards]


def test_run_points_mixed_sweeps_single_invocation(tmp_path):
    # figure11-style composition: several sweeps, one engine call.
    points = (Sweep(workloads=["hmmer"], defenses=["Unsafe"],
                    scale=SCALE).points()
              + Sweep(workloads=["hmmer"], defenses=["GhostMinion"],
                      variants=[ConfigVariant.make(
                          "128B", {"minion_d.size_bytes": 128})],
                      scale=SCALE).points())
    report = run_points(points, cache=str(tmp_path))
    assert report.total == 2
    assert report.results.keys() == [
        "hmmer::Unsafe::base", "hmmer::GhostMinion::128B"]


# ---------------------------------------------------------------------------
# timing telemetry
# ---------------------------------------------------------------------------

def test_point_timings_keep_fixed_columns_across_cached_points(tmp_path):
    """Cached points get a timing row too (seconds 0.0, cached True) —
    mixed cached/fresh sweeps must not change the table's shape."""
    sweep = small_sweep(workloads=["hmmer"])
    run_sweep(sweep, cache=str(tmp_path))          # populate
    report = run_sweep(sweep, cache=str(tmp_path))  # all hits
    rows = report.point_timings()
    assert len(rows) == report.total == 2
    expected_keys = {"key", "seconds", "cycles", "cached",
                     "warm_insts", "skipped_cycles", "skipped_by_class"}
    for row in rows:
        assert set(row) == expected_keys
        assert row["cached"] is True
        assert row["seconds"] == 0.0
    # Cached rows never surface in the slowest-points summary.
    assert "slowest" not in report.timing_summary()
    assert report.sim_seconds() == 0.0
    meta = report.timing_meta()
    assert meta["warm_insts"] == 0
    assert len(meta["points"]) == 2


# ---------------------------------------------------------------------------
# point digests: digest() is exactly sha256 of the canonical token JSON
# ---------------------------------------------------------------------------

def _token_sha(token):
    text = json.dumps(token, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _assert_digests_match_tokens(points):
    for point in points:
        assert point.digest() == _token_sha(point.cache_token()), \
            point.key
        assert point.prefix_digest() == _token_sha(point.prefix_token()), \
            point.key


DIGEST_VARIANTS = [
    ConfigVariant.make(),
    ConfigVariant.make("bimodal", {"core.predictor.kind": "bimodal"}),
    ConfigVariant.make("dminion512", {"minion_d.size_bytes": 512}),
]
DIGEST_DEFENSES = (["Unsafe"] + FIGURE_ORDER
                   + ["GhostMinion(timeless=True)"])


@pytest.mark.parametrize("suite", [SPEC2006, PARSEC],
                         ids=["spec2006", "parsec"])
def test_digest_equals_token_sha_across_figure_points(suite):
    points = Sweep(workloads=[spec.name for spec in suite],
                   defenses=DIGEST_DEFENSES, variants=DIGEST_VARIANTS,
                   scale=SCALE).points()
    # Twice over: the second pass is served from the config memo.
    _assert_digests_match_tokens(points)
    _assert_digests_match_tokens(points)
    assert len({point.digest() for point in points}) == len(points)


def test_digest_equals_token_sha_for_policy_points():
    common = dict(workloads=["hmmer", "canneal"],
                  defenses=["Unsafe", "GhostMinion"],
                  variants=DIGEST_VARIANTS, scale=SCALE, max_insts=10_000)
    warm = Sweep(warmup_insts=5_000, **common).points()
    sampled = Sweep(sampling=RegionSampling(regions=2, window_insts=500),
                    **common).points()
    _assert_digests_match_tokens(warm + sampled)


def test_digest_with_unhashable_override_matches_token():
    variant = ConfigVariant.make("latencies",
                                 {"dram.base_latency": [80, 160]})
    points = Sweep(workloads=["hmmer"], defenses=["Unsafe"],
                   variants=[variant], scale=SCALE).points()
    _assert_digests_match_tokens(points)


def test_digest_keeps_equal_but_differently_typed_overrides_apart():
    """``True == 1`` and ``512 == 512.0``, but they encode differently:
    the config memo must not hand one the other's token."""
    variants = [ConfigVariant.make(label, overrides) for label, overrides
                in (("t", {"core.strict_fu_order": True}),
                    ("one", {"core.strict_fu_order": 1}),
                    ("int", {"minion_d.size_bytes": 512}),
                    ("float", {"minion_d.size_bytes": 512.0}))]
    points = Sweep(workloads=["hmmer"], defenses=["Unsafe"],
                   variants=variants, scale=SCALE).points()
    _assert_digests_match_tokens(points)
    assert len({point.digest() for point in points}) == 4


def test_digest_of_same_overrides_differs_by_thread_count():
    spec = SPEC2006[0]
    variant = [ConfigVariant.make("d", {"minion_d.size_bytes": 512})]
    one, four = (Sweep(workloads=[dataclasses.replace(spec, threads=n)],
                       defenses=["Unsafe"], variants=variant,
                       scale=SCALE).points()[0] for n in (1, 4))
    assert one.digest() != four.digest()
    assert four.cache_token()["config"]["cores"] == 4
    _assert_digests_match_tokens([one, four])


def test_digest_follows_mutated_base_cfg():
    base = default_config()
    point = Sweep(workloads=["hmmer"], defenses=["GhostMinion"],
                  scale=SCALE, base_cfg=base).points()[0]
    before = point.digest()
    base.minion_d.size_bytes = 512
    assert point.digest() != before
    _assert_digests_match_tokens([point])
