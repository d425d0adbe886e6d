"""The result cache's maintenance and quarantine."""

import json
import os

import pytest

from repro.exp import ResultCache, Sweep, run_sweep

SCALE = 0.04


def small_sweep(**overrides):
    kwargs = dict(name="t", workloads=["hmmer", "gamess"],
                  defenses=["Unsafe", "GhostMinion"], scale=SCALE)
    kwargs.update(overrides)
    return Sweep(**kwargs)


# ---------------------------------------------------------------------------
# cache maintenance (stats / prune / quarantine)
# ---------------------------------------------------------------------------

def test_cache_stats_and_prune(tmp_path):
    cache_dir = str(tmp_path / "cache")
    run_sweep(small_sweep(), cache=cache_dir)
    cache = ResultCache(cache_dir)
    stats = cache.stats()
    assert stats["entries"] == 4 and stats["bytes"] > 0
    # nothing is older than a day
    assert cache.prune(older_than=86400.0)["removed"] == 0
    removed = cache.prune()
    assert removed["removed"] == 4
    assert removed["bytes"] == stats["bytes"]
    assert cache.stats() == {"directory": cache.directory,
                             "entries": 0, "bytes": 0, "corrupt": 0}
    # empty two-hex shard dirs were cleaned up
    assert os.listdir(cache_dir) == []


def test_cache_prune_by_age_uses_mtime(tmp_path):
    cache_dir = str(tmp_path / "cache")
    run_sweep(Sweep(workloads=["hmmer"], defenses=["Unsafe"],
                    scale=SCALE), cache=cache_dir)
    cache = ResultCache(cache_dir)
    _digest, path = next(iter(cache.entries()))
    old = os.path.getmtime(path) - 10 * 86400
    os.utime(path, (old, old))
    assert cache.prune(older_than=7 * 86400.0)["removed"] == 1
    assert cache.stats()["entries"] == 0


def test_corrupt_entry_quarantined_with_warning(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    sweep = Sweep(workloads=["hmmer"], defenses=["Unsafe"], scale=SCALE)
    run_sweep(sweep, cache=cache_dir)
    cache = ResultCache(cache_dir)
    digest = sweep.points()[0].digest()
    path = cache.path_for(digest)
    with open(path, "w") as handle:
        handle.write("{truncated")
    assert cache.lookup(digest) is None
    err = capsys.readouterr().err
    assert "quarantined corrupt result-cache entry" in err
    assert not os.path.exists(path)
    assert os.path.exists(path + ".corrupt")
    # quarantined files are not entries, but stats/prune still see them
    stats = cache.stats()
    assert stats["entries"] == 0 and stats["corrupt"] == 1
    assert cache.prune()["removed"] == 1
    assert not os.path.exists(path + ".corrupt")
    assert cache.stats()["corrupt"] == 0
    assert os.listdir(cache.directory) == []


def test_non_dict_entry_quarantined(tmp_path, capsys):
    """Valid JSON that is not an object must quarantine, not raise."""
    cache_dir = str(tmp_path / "cache")
    sweep = Sweep(workloads=["hmmer"], defenses=["Unsafe"], scale=SCALE)
    run_sweep(sweep, cache=cache_dir)
    cache = ResultCache(cache_dir)
    digest = sweep.points()[0].digest()
    path = cache.path_for(digest)
    with open(path, "w") as handle:
        handle.write("null")
    assert cache.lookup(digest) is None
    assert "quarantined" in capsys.readouterr().err
    assert os.path.exists(path + ".corrupt")


def test_partial_entry_quarantined(tmp_path, capsys):
    """Well-formed JSON missing result fields is quarantined too."""
    cache_dir = str(tmp_path / "cache")
    sweep = Sweep(workloads=["hmmer"], defenses=["Unsafe"], scale=SCALE)
    run_sweep(sweep, cache=cache_dir)
    cache = ResultCache(cache_dir)
    digest = sweep.points()[0].digest()
    path = cache.path_for(digest)
    from repro.exp import CACHE_SCHEMA_VERSION
    with open(path, "w") as handle:
        json.dump({"cache_version": CACHE_SCHEMA_VERSION,
                   "result": {"key": "only"}}, handle)
    assert cache.lookup(digest) is None
    assert "quarantined" in capsys.readouterr().err
    assert os.path.exists(path + ".corrupt")


@pytest.mark.parametrize("encode", [
    lambda text: b"\xef\xbb\xbf" + text.encode("utf-8"),
    lambda text: text.encode("utf-16"),
    lambda text: text.encode("utf-8").replace(b'"key"', b'"k\xff"'),
], ids=["utf8-bom", "utf16", "invalid-utf8"])
def test_entry_not_plain_utf8_quarantined(tmp_path, capsys, encode):
    """Entries are UTF-8 JSON without a byte-order mark: a BOM, UTF-16
    or undecodable bytes quarantine the entry as invalid JSON."""
    cache_dir = str(tmp_path / "cache")
    sweep = Sweep(workloads=["hmmer"], defenses=["Unsafe"], scale=SCALE)
    run_sweep(sweep, cache=cache_dir)
    cache = ResultCache(cache_dir)
    digest = sweep.points()[0].digest()
    path = cache.path_for(digest)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    assert cache.lookup(digest).digest == digest
    with open(path, "wb") as handle:
        handle.write(encode(text))
    assert cache.lookup(digest) is None
    assert "corrupt result-cache entry (invalid JSON)" in \
        capsys.readouterr().err
    assert os.path.exists(path + ".corrupt")


@pytest.mark.parametrize("field,value,reason", [
    ("stats", "x", "missing/invalid result fields"),
    ("digest", "0" * 64, "does not match its slot"),
    ("cycles", "12", "fields (cycles)"),
    ("cycles", True, "fields (cycles)"),
    ("insts", 12.0, "fields (insts)"),
    ("finished", 1, "fields (finished)"),
    ("key", 5, "fields (key)"),
    ("workload", None, "fields (workload)"),
    ("defense", ["Unsafe"], "fields (defense)"),
    ("variant", 0, "fields (variant)"),
    ("digest", 7, "fields (digest)"),
    ("scale", "0.04", "fields (scale)"),
    ("stats.sim.cycles", "12", "fields (stats)"),
    ("stats.sim.cycles", True, "fields (stats)"),
    ("stats.sim.cycles", None, "fields (stats)"),
], ids=["stats-not-mapping", "digest-not-slot", "cycles-str",
        "cycles-bool", "insts-float", "finished-int", "key-int",
        "workload-null", "defense-list", "variant-int", "digest-int",
        "scale-str", "stat-str", "stat-bool", "stat-null"])
def test_untrustworthy_entry_skipped_by_backfill_and_quarantined(
        tmp_path, capsys, field, value, reason):
    """A mistyped or missing result field (``stats.<name>``: one stat
    value), or a recorded digest that is not the slot's: lookup
    quarantines the entry instead of serving it to a consumer that
    would crash on it."""
    cache_dir = str(tmp_path / "cache")
    sweep = Sweep(workloads=["hmmer"], defenses=["Unsafe"], scale=SCALE)
    run_sweep(sweep, cache=cache_dir)
    cache = ResultCache(cache_dir)
    digest = sweep.points()[0].digest()
    path = cache.path_for(digest)
    with open(path) as handle:
        payload = json.load(handle)
    if field.startswith("stats."):
        payload["result"]["stats"][field[len("stats."):]] = value
    else:
        payload["result"][field] = value
    with open(path, "w") as handle:
        json.dump(payload, handle)
    assert cache.lookup(digest) is None
    assert reason in capsys.readouterr().err
    assert os.path.exists(path + ".corrupt")
    # the sweep that hit it re-simulates into a fresh entry
    assert run_sweep(sweep, cache=cache_dir).cache_hits == 0
    assert cache.lookup(digest).digest == digest


def test_stale_version_is_miss_not_quarantine(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    sweep = Sweep(workloads=["hmmer"], defenses=["Unsafe"], scale=SCALE)
    run_sweep(sweep, cache=cache_dir)
    cache = ResultCache(cache_dir)
    digest = sweep.points()[0].digest()
    path = cache.path_for(digest)
    with open(path) as handle:
        payload = json.load(handle)
    payload["cache_version"] = -1
    with open(path, "w") as handle:
        json.dump(payload, handle)
    assert cache.lookup(digest) is None
    assert capsys.readouterr().err == ""
    assert os.path.exists(path)  # left in place for store() to rewrite
