"""The result store: sqlite rows, shards, merge conflicts, backfill."""

import dataclasses
import json
import os
import sqlite3

import pytest

from repro.cli import main
from repro.exp import ResultCache, Sweep, run_points, run_sweep, shard_points
from repro.sim.runner import compare_defenses, normalised_times
from repro.store import (
    MissingStoreResultError,
    ResultStore,
    RunMeta,
    StoreCache,
    StoreConflictError,
    StoreError,
    backfill_from_cache,
    load_shard,
    merge_shards,
    write_shard,
)

SCALE = 0.04
META = RunMeta(host="testhost", repro_version="1.0.0-test",
               recorded_at=1700000000.0)


def small_sweep(**overrides):
    kwargs = dict(name="t", workloads=["hmmer", "gamess"],
                  defenses=["Unsafe", "GhostMinion"], scale=SCALE)
    kwargs.update(overrides)
    return Sweep(**kwargs)


@pytest.fixture()
def store(tmp_path):
    with ResultStore(str(tmp_path / "r.sqlite"), run_meta=META) as db:
        yield db


# ---------------------------------------------------------------------------
# ResultStore basics
# ---------------------------------------------------------------------------

def test_insert_lookup_select_roundtrip(store):
    report = run_sweep(small_sweep())
    assert store.insert_many(report.results, sweep="t",
                             source="test") == 4
    assert len(store) == 4
    for point in report.results:
        assert store.has(point.digest)
        hit = store.lookup(point.digest)
        assert hit.cached is True
        assert hit.to_json_dict() == point.to_json_dict()
    # filtered queries come back as ResultSets under stored keys
    unsafe = store.select(defense="Unsafe")
    assert unsafe.keys() == ["hmmer::Unsafe::base",
                             "gamess::Unsafe::base"]
    assert len(store.select(workload="hmmer")) == 2
    assert len(store.select(sweep="t")) == 4
    assert len(store.select(sweep="other")) == 0
    # select preserves the exact canonical payloads
    assert store.select(sweep="t").to_json() == report.results.to_json()


def test_rows_carry_run_metadata(store):
    report = run_sweep(small_sweep())
    store.insert_many(report.results, sweep="t", source="test")
    rows = store.rows(defense="GhostMinion")
    assert len(rows) == 2
    for row in rows:
        assert row["host"] == "testhost"
        assert row["repro_version"] == "1.0.0-test"
        assert row["recorded_at"] == 1700000000.0
        assert row["sweep"] == "t" and row["source"] == "test"
        assert row["cycles"] > 0


def test_duplicate_insert_is_noop(store):
    report = run_sweep(small_sweep())
    store.insert_many(report.results)
    assert store.insert_many(report.results) == 0
    assert len(store) == 4


def test_conflicting_payload_is_hard_error(store):
    report = run_sweep(small_sweep())
    store.insert_many(report.results, source="first")
    tampered = next(iter(report.results))
    tampered = dataclasses.replace(tampered, cycles=tampered.cycles + 1)
    with pytest.raises(StoreConflictError) as exc:
        store.insert(tampered, source="second")
    assert tampered.digest in str(exc.value)
    assert "first" in str(exc.value)


def test_display_view_mismatch_is_not_a_conflict(store):
    """key/variant label are a sweep's view of a point, not part of the
    simulation identity: two views of the same digest must merge."""
    report = run_sweep(small_sweep())
    point = next(iter(report.results))
    store.insert(point)
    relabelled = dataclasses.replace(point, key="other::view::late",
                                     variant="late")
    assert store.insert(relabelled) is False  # duplicate, first wins
    assert store.lookup(point.digest).key == point.key


def test_schema_version_mismatch_rejected(tmp_path):
    path = str(tmp_path / "r.sqlite")
    ResultStore(path).close()
    conn = sqlite3.connect(path)
    conn.execute("UPDATE store_meta SET value='999' "
                 "WHERE key='schema_version'")
    conn.commit()
    conn.close()
    with pytest.raises(StoreError, match="schema version 999"):
        ResultStore(path)


def test_concurrent_creation_of_fresh_store(tmp_path, monkeypatch):
    """Two processes opening the same fresh file (pool workers sharing
    a checkpoint database) both find no schema row; the one that
    inserts second must not fail on the key."""
    path = str(tmp_path / "r.sqlite")
    real_connect = sqlite3.connect

    class FetchedRow:
        def __init__(self, row):
            self.row = row

        def fetchone(self):
            return self.row

    class RacingConnection(sqlite3.Connection):
        def execute(self, sql, *args):
            cursor = super().execute(sql, *args)
            if sql.startswith("SELECT") and "'schema_version'" in sql:
                row = cursor.fetchone()
                # The other opener inserts between our read and write.
                monkeypatch.undo()
                ResultStore(path).close()
                return FetchedRow(row)
            return cursor

    monkeypatch.setattr(sqlite3, "connect", lambda target: real_connect(
        target, factory=RacingConnection))
    ResultStore(path).close()
    conn = sqlite3.connect(path)
    rows = conn.execute("SELECT value FROM store_meta "
                        "WHERE key='schema_version'").fetchall()
    conn.close()
    assert rows == [("1",)]


def test_non_store_file_rejected(tmp_path):
    path = tmp_path / "not-a-db.sqlite"
    path.write_text("definitely not sqlite")
    with pytest.raises(StoreError):
        ResultStore(str(path))


def test_checkpoint_schema_version_mismatch_rejected(tmp_path):
    """Checkpoints version independently of results: an incompatible
    checkpoint layout must not take the whole result store down with a
    misleading error — it gets its own."""
    path = str(tmp_path / "r.sqlite")
    ResultStore(path).close()
    conn = sqlite3.connect(path)
    conn.execute("UPDATE store_meta SET value='999' "
                 "WHERE key='checkpoint_schema_version'")
    conn.commit()
    conn.close()
    with pytest.raises(StoreError, match="checkpoint schema"):
        ResultStore(path)


def test_pre_checkpoint_store_is_upgraded_in_place(tmp_path):
    """Opening a store created before the checkpoints table existed
    adopts it: the version key is stamped and checkpoints work."""
    path = str(tmp_path / "r.sqlite")
    ResultStore(path).close()
    conn = sqlite3.connect(path)
    conn.execute("DELETE FROM store_meta "
                 "WHERE key='checkpoint_schema_version'")
    conn.execute("DROP TABLE checkpoints")
    conn.commit()
    conn.close()
    reopened = ResultStore(path)
    assert reopened.checkpoint_stats()["checkpoints"] == 0
    assert reopened.checkpoint_save("p", 1, b"x", fmt=1, insts=1,
                                    cycles=1)
    reopened.close()


# ---------------------------------------------------------------------------
# engine integration: write-through and strict replay
# ---------------------------------------------------------------------------

def test_write_through_records_executed_points(store):
    sweep = small_sweep()
    first = run_sweep(sweep, cache=store)
    assert first.executed == 4 and first.cache_hits == 0
    assert len(store) == 4
    second = run_sweep(sweep, cache=store)
    assert second.executed == 0 and second.cache_hits == 4
    assert all(p.cached for p in second.results)
    assert first.results.to_json() == second.results.to_json()


def test_strict_replay_byte_identical(store):
    sweep = small_sweep()
    direct = run_sweep(sweep)
    store.insert_many(direct.results)
    replay = run_sweep(sweep, cache=StoreCache(store, "strict"))
    assert replay.executed == 0
    assert replay.results.to_json() == direct.results.to_json()


def test_strict_replay_fails_fast_on_missing_point(store):
    with pytest.raises(MissingStoreResultError):
        run_sweep(small_sweep(), cache=StoreCache(store, "strict"))
    assert len(store) == 0  # nothing was simulated or recorded


def test_readonly_mode_never_writes(store):
    run_sweep(small_sweep(), cache=StoreCache(store, "ro"))
    assert len(store) == 0


def test_storecache_rejects_unknown_mode(store):
    with pytest.raises(ValueError):
        StoreCache(store, "append")


@pytest.mark.parametrize("tamper,reason", [
    (lambda payload: json.dumps(dict(payload, cycles="12")),
     "fields (cycles)"),
    (lambda payload: "{truncated", "invalid JSON"),
    (lambda payload: json.dumps(dict(payload, digest="0" * 64)),
     "does not match its slot"),
], ids=["cycles-str", "invalid-json", "digest-mismatch"])
def test_untrustworthy_row_is_never_served(store, capsys, tamper, reason):
    """A row failing the cache's entry checks is skipped by select and
    is a warned miss for lookup, which deletes it so the re-simulated
    point records cleanly instead of conflicting with it."""
    workloads, defenses = ["hmmer"], ["Unsafe", "GhostMinion"]
    sweep = Sweep(workloads=workloads, defenses=defenses, scale=SCALE)
    run_sweep(sweep, cache=store)
    digest = sweep.points()[0].digest()
    clean = store.lookup(digest)
    conn = sqlite3.connect(store.path)
    with conn:
        (payload,) = conn.execute(
            "SELECT payload FROM results WHERE digest=?",
            (digest,)).fetchone()
        conn.execute("UPDATE results SET payload=? WHERE digest=?",
                     (tamper(json.loads(payload)), digest))
    conn.close()
    assert [point.digest for point in store.select()] == \
        [sweep.points()[1].digest()]
    err = capsys.readouterr().err
    assert "skipped corrupt result-store row" in err and reason in err
    table = normalised_times(compare_defenses(
        workloads, defenses, scale=SCALE, cache=store))
    assert table["hmmer"]["GhostMinion"] > 0
    err = capsys.readouterr().err
    assert "deleted corrupt result-store row" in err and reason in err
    assert store.lookup(digest).to_json_dict() == clean.to_json_dict()
    assert len(store.select()) == 2


# ---------------------------------------------------------------------------
# shards: export, merge, conflict detection
# ---------------------------------------------------------------------------

def _export_shards(tmp_path, sweep, count):
    paths = []
    for index in range(count):
        report = run_points(sweep.shard(index, count))
        path = str(tmp_path / ("shard%d.json" % index))
        write_shard(path, report.results, sweep=sweep.name,
                    index=index, count=count,
                    total_points=len(sweep.points()), run_meta=META)
        paths.append(path)
    return paths


def test_shard_merge_then_replay_matches_direct_run(tmp_path, store):
    sweep = small_sweep()
    paths = _export_shards(tmp_path, sweep, 2)
    report = merge_shards(store, paths)
    assert report.inserted == 4 and report.duplicates == 0
    assert report.shards == 2
    direct = run_sweep(sweep)
    replay = run_sweep(sweep, cache=StoreCache(store, "strict"))
    assert replay.results.to_json() == direct.results.to_json()


def test_shard_file_format(tmp_path):
    sweep = small_sweep()
    [path] = _export_shards(tmp_path, sweep, 1)
    shard = load_shard(path)
    assert shard.index == 0 and shard.count == 1
    assert shard.sweep == "t" and shard.total_points == 4
    assert len(shard.results) == 4
    meta = shard.run_meta[next(iter(shard.results)).digest]
    assert meta["host"] == "testhost"
    # a shard file is also a plain ResultSet document
    from repro.exp import ResultSet
    with open(path) as handle:
        payload = handle.read()
    assert len(ResultSet.from_json(payload)) == 4


def test_merge_is_idempotent(tmp_path, store):
    paths = _export_shards(tmp_path, small_sweep(), 2)
    merge_shards(store, paths)
    again = merge_shards(store, paths)
    assert again.inserted == 0 and again.duplicates == 4
    assert len(store) == 4


def test_merge_conflict_rolls_back_shard(tmp_path, store):
    sweep = small_sweep()
    [path] = _export_shards(tmp_path, sweep, 1)
    with open(path) as handle:
        payload = json.load(handle)
    payload["points"][0]["cycles"] += 1  # tampered result
    bad = str(tmp_path / "tampered.json")
    with open(bad, "w") as handle:
        json.dump(payload, handle)
    with pytest.raises(StoreConflictError):
        merge_shards(store, [path, bad])
    # the good shard committed; the tampered one left no partial rows
    assert len(store) == 4


def test_concurrent_writer_duplicate_is_noop(tmp_path, store):
    """Two connections write-through to the same store file: the loser
    of the insert race sees a duplicate, not an IntegrityError."""
    report = run_sweep(Sweep(workloads=["hmmer"], defenses=["Unsafe"],
                             scale=SCALE))
    point = next(iter(report.results))
    other = ResultStore(store.path, run_meta=META)
    assert store.insert(point) is True
    assert other.insert(point) is False
    other.close()


def test_merge_warns_on_incomplete_shard_family(tmp_path, store):
    sweep = small_sweep()
    paths = _export_shards(tmp_path, sweep, 2)
    partial = merge_shards(store, paths[:1])
    assert len(partial.warnings) == 1
    assert "1 of 2 shards" in partial.warnings[0]
    assert "missing indices: 1" in partial.warnings[0]
    complete = merge_shards(store, paths)
    assert complete.warnings == []


def test_merge_rejects_unknown_formats(tmp_path, store):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": 99, "points": []}')
    with pytest.raises(StoreError, match="unsupported result format"):
        merge_shards(store, [str(bad)])
    bad.write_text('{"format": 1, "points": [], '
                   '"shard": {"format": 42}}')
    with pytest.raises(StoreError, match="unsupported shard format"):
        merge_shards(store, [str(bad)])


def test_malformed_shard_content_is_clean_store_error(tmp_path, store):
    """Tampered shard internals surface as StoreError, not raw
    KeyError/ValueError tracebacks."""
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")  # valid JSON, not a shard
    with pytest.raises(StoreError, match="not a shard file"):
        merge_shards(store, [str(bad)])
    bad.write_text('{"format": 1}')  # missing points
    with pytest.raises(StoreError, match="malformed shard file"):
        merge_shards(store, [str(bad)])
    bad.write_text('{"format": 1, "points": [{"key": "only"}]}')
    with pytest.raises(StoreError, match="malformed shard file"):
        merge_shards(store, [str(bad)])
    # bad run_meta values fail cleanly too (and roll back the shard)
    sweep = small_sweep()
    [good] = _export_shards(tmp_path, sweep, 1)
    with open(good) as handle:
        payload = json.load(handle)
    digest = next(iter(payload["run_meta"]))
    payload["run_meta"][digest]["recorded_at"] = "yesterday"
    bad.write_text(json.dumps(payload))
    with pytest.raises(StoreError, match="malformed run_meta"):
        merge_shards(store, [str(bad)])
    assert len(store) == 0


# ---------------------------------------------------------------------------
# backfill from the JSON cache
# ---------------------------------------------------------------------------

def test_backfill_from_json_cache(tmp_path, store):
    sweep = small_sweep()
    cache_dir = str(tmp_path / "cache")
    direct = run_sweep(sweep, cache=cache_dir)
    # one corrupt file and one stale alien file must be skipped
    cache = ResultCache(cache_dir)
    (tmp_path / "cache" / "zz").mkdir()
    alien = tmp_path / "cache" / "zz" / ("z" * 64 + ".json")
    alien.write_text('{"cache_version": -1}')
    corrupt_digest = sweep.points()[0].digest()
    with open(cache.path_for(corrupt_digest), "w") as handle:
        handle.write("not json{")
    report = backfill_from_cache(store, cache)
    assert report.scanned == 5
    assert report.inserted == 3
    assert report.skipped == 2
    rows = store.rows()
    assert all(row["source"] == "backfill" for row in rows)
    # the surviving entries replay exactly
    for point in direct.results:
        if point.digest == corrupt_digest:
            continue
        assert (store.lookup(point.digest).to_json_dict()
                == point.to_json_dict())
    # re-backfill is a no-op for already-held digests
    assert backfill_from_cache(store, cache).inserted == 0


def test_backfill_skips_misnamed_entry(tmp_path, store):
    cache_dir = str(tmp_path / "cache")
    run_sweep(Sweep(workloads=["hmmer"], defenses=["Unsafe"],
                    scale=SCALE), cache=cache_dir)
    cache = ResultCache(cache_dir)
    digest, path = next(iter(cache.entries()))
    moved = os.path.join(os.path.dirname(path), "ab" + "0" * 62 + ".json")
    os.rename(path, moved)
    os.rename(os.path.dirname(path),
              os.path.join(cache_dir, "ab"))
    report = backfill_from_cache(store, cache)
    assert report.inserted == 0 and report.skipped == 1


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
        tmp_path, store, capsys, field, value, reason):
    """A mistyped or missing result field (``stats.<name>``: one stat
    value), or a recorded digest that is not the slot's: backfill (CLI
    included) skips the entry, and lookup quarantines it instead of
    serving it to a consumer that would crash on it."""
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
    report = backfill_from_cache(store, cache)
    assert (report.scanned, report.skipped, report.inserted) == (1, 1, 0)
    assert main(["store", "backfill", "--db", str(tmp_path / "cli.sqlite"),
                 "--cache-dir", cache_dir, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["skipped"] == 1
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


# ---------------------------------------------------------------------------
# shard partition determinism
# ---------------------------------------------------------------------------

def test_shards_disjoint_union_and_stable():
    sweep = Sweep(name="big", workloads=["hmmer", "gamess", "mcf"],
                  defenses=["Unsafe", "GhostMinion", "MuonTrap"],
                  scale=SCALE)
    all_keys = {p.key for p in sweep.points()}
    for count in (1, 2, 3, 4, 9, 16):
        shards = [sweep.shard(i, count) for i in range(count)]
        seen = []
        for shard in shards:
            seen.extend(p.key for p in shard)
        assert len(seen) == len(set(seen)), "shards overlap"
        assert set(seen) == all_keys, "union != full sweep"
    # stable across independent expansions
    first = [[p.key for p in sweep.shard(i, 3)] for i in range(3)]
    second = [[p.key for p in small_sweep(
        name="big", workloads=["hmmer", "gamess", "mcf"],
        defenses=["Unsafe", "GhostMinion", "MuonTrap"]).shard(i, 3)]
        for i in range(3)]
    assert first == second


def test_shard_points_validates_arguments():
    points = small_sweep().points()
    with pytest.raises(ValueError):
        shard_points(points, 0, 0)
    with pytest.raises(ValueError):
        shard_points(points, 2, 2)
    with pytest.raises(ValueError):
        shard_points(points, -1, 2)
    ordered = sorted(points, key=lambda p: p.digest())
    assert ([p.key for p in shard_points(points, 0, 1)]
            == [p.key for p in ordered])
