"""Checkpoint subsystem: blobs, store, policies.

Three layers, bottom up:

- :mod:`repro.sim.checkpoint` — whole-machine blob round trips and the
  refusal cases (corrupt, wrong format, wrong source tree);
- :class:`repro.exp.checkpoints.CheckpointDB` —
  save/lookup/first-write-wins/stats/prune, and files written by older
  builds;
- the engine policies — ``warmup_insts`` warm-start and
  ``sampling`` region sampling, both byte-identical to cold runs
  (the full defense matrix lives in ``test_scheduler_equivalence.py``).
"""

import os
import pickle
import sqlite3
import subprocess
import sys
import zlib

import pytest

from repro.defenses import registry
from repro.exp.checkpoints import CheckpointDB, RunMeta
from repro.exp.engine import (
    ENV_CHECKPOINT_DB,
    resolve_checkpoints,
    run_points,
)
from repro.exp.spec import RegionSampling, SweepPoint, resolve_workload
from repro.sim.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    restore_simulator,
)
from repro.sim.simulator import Simulator
from repro.workloads.spec import get_workload


# -- whole-machine blobs ---------------------------------------------------


def _mid_run_sim():
    programs = get_workload("mcf").build(0.04)
    sim = Simulator(programs, registry["Unsafe"]())
    sim.run(max_insts=200)
    return sim


def test_simulator_blob_round_trip():
    sim = _mid_run_sim()
    blob = sim.snapshot()
    restored = Simulator.restore(blob)
    assert restored is not sim
    assert restored.cycle == sim.cycle
    assert restored.committed_insts() == sim.committed_insts()
    assert restored.stats.as_dict() == sim.stats.as_dict()


#: Snapshots mcf at scale 0.25 after 3,762 instructions under each
#: defense named on the command line, into ``<dir>/<defense>.blob``,
#: after allocating ``junk`` objects first so that every op lands at
#: another address.  The asserts keep the point one where the op sets
#: are in use: branches in flight and, under STT, multi-source taints.
_SNAPSHOT_SCRIPT = """
import os, sys
junk = [[i] for i in range(int(sys.argv[2]))]
from repro.defenses import registry
from repro.sim.simulator import Simulator
from repro.workloads.spec import get_workload
for name in sys.argv[3:]:
    sim = Simulator(get_workload("mcf").build(0.25), registry[name]())
    sim.run(max_insts=3762)
    core = sim.cores[0]
    assert len(core.unresolved_branches) > 1
    if name.startswith("STT"):
        assert max(len(di.taint_srcs) for di in core.rob) > 1
    with open(os.path.join(sys.argv[1], name + ".blob"), "wb") as out:
        out.write(sim.snapshot())
"""


def test_snapshot_bytes_do_not_depend_on_the_process(tmp_path):
    """Ops hash by identity, so the core's op sets iterate in memory
    order; the pickler writes them in ``seq`` order.  Two processes
    with different allocation histories and hash seeds write the same
    blob, and a restored blob still runs on exactly like a cold run."""
    defenses = ("GhostMinion", "STT-Future")
    blobs = []
    for run, junk in enumerate((0, 50_000)):
        out = tmp_path / str(run)
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"),
                   PYTHONHASHSEED=str(run + 1))
        subprocess.run([sys.executable, "-c", _SNAPSHOT_SCRIPT, str(out),
                        str(junk), *defenses], env=env, check=True)
        blobs.append({name: (out / (name + ".blob")).read_bytes()
                      for name in defenses})
    for name in defenses:
        assert blobs[0][name] == blobs[1][name], name
        restored = Simulator.restore(blobs[0][name])
        cold = Simulator(get_workload("mcf").build(0.25), registry[name]())
        cold.run(max_insts=3762)
        for sim in (restored, cold):
            sim.run(max_insts=4400)
        assert restored.cycle == cold.cycle
        assert restored.stats.as_dict() == cold.stats.as_dict()
        assert restored.cores[0].arch_regs() == cold.cores[0].arch_regs()


def test_restore_rejects_garbage():
    with pytest.raises(CheckpointError):
        Simulator.restore(b"not a checkpoint")


def test_restore_rejects_unknown_format():
    blob = zlib.compress(pickle.dumps({"format": CHECKPOINT_FORMAT + 1,
                                       "code": "x", "sim": None}))
    with pytest.raises(CheckpointError, match="format"):
        restore_simulator(blob)


def test_restore_rejects_foreign_source_tree():
    sim = _mid_run_sim()
    payload = pickle.loads(zlib.decompress(sim.snapshot()))
    payload["code"] = "0" * len(payload["code"])
    tampered = zlib.compress(pickle.dumps(payload))
    with pytest.raises(CheckpointError, match="source tree"):
        restore_simulator(tampered)
    # The checkpoint database keys blobs by a digest that already covers the
    # fingerprint, so it may skip the redundant header check.
    restored = restore_simulator(tampered, check_code=False)
    assert restored.cycle == sim.cycle


def test_restore_rejects_blob_without_simulator():
    blob = zlib.compress(pickle.dumps({"format": CHECKPOINT_FORMAT,
                                       "code": "x", "sim": "nope"}))
    with pytest.raises(CheckpointError, match="no simulator"):
        restore_simulator(blob, check_code=False)


# -- the checkpoint database -----------------------------------------------


def _store(tmp_path, name="ck.sqlite"):
    return CheckpointDB(str(tmp_path / name))


def test_checkpoint_save_lookup_round_trip(tmp_path):
    store = _store(tmp_path)
    assert store.save("p1", 500, b"blob-bytes",
                      fmt=CHECKPOINT_FORMAT, insts=502, cycles=9000,
                      workload="mcf", defense="Unsafe")
    record = store.lookup("p1", 500)
    assert record.blob == b"blob-bytes"
    assert (record.prefix_digest, record.inst_count) == ("p1", 500)
    assert (record.format, record.insts, record.cycles) == \
        (CHECKPOINT_FORMAT, 502, 9000)
    assert store.lookup("p1", 501) is None
    assert store.lookup("p2", 500) is None


def test_checkpoint_first_write_wins(tmp_path):
    store = _store(tmp_path)
    assert store.save("p1", 500, b"first",
                      fmt=CHECKPOINT_FORMAT, insts=500, cycles=1)
    assert not store.save("p1", 500, b"second",
                          fmt=CHECKPOINT_FORMAT, insts=500, cycles=1)
    assert store.lookup("p1", 500).blob == b"first"


def test_checkpoint_stats_and_counts(tmp_path):
    store = _store(tmp_path)
    store.save("p1", 100, b"aa", fmt=1, insts=100, cycles=1)
    store.save("p1", 200, b"bbbb", fmt=1, insts=200, cycles=2)
    store.save("p2", 100, b"c", fmt=1, insts=100, cycles=1)
    assert store.counts("p1") == [100, 200]
    stats = store.stats()
    assert stats["checkpoints"] == 3
    assert stats["checkpoint_bytes"] == 7
    assert stats["checkpoint_prefixes"] == 2


def test_checkpoint_prune_filters(tmp_path):
    store = _store(tmp_path)
    store.save("aaa", 100, b"x", fmt=1, insts=100, cycles=1,
               meta=RunMeta(host="t", repro_version="0", recorded_at=100.0))
    store.save("bbb", 100, b"y", fmt=1, insts=100, cycles=1,
               meta=RunMeta(host="t", repro_version="0", recorded_at=900.0))
    with pytest.raises(ValueError):
        store.prune()
    assert store.prune(older_than=500.0) == 1
    assert store.lookup("bbb", 100) is not None
    assert store.prune(prefix="bb") == 1
    assert store.stats()["checkpoints"] == 0
    store.save("ccc", 1, b"z", fmt=1, insts=1, cycles=1)
    assert store.prune(all_rows=True) == 1


def test_checkpoint_prune_sanitizes_like_wildcards(tmp_path):
    store = _store(tmp_path)
    store.save("abc", 1, b"x", fmt=1, insts=1, cycles=1)
    # A hostile/typo'd "%" must not turn a prefix prune into --all.
    assert store.prune(prefix="%") == 0
    assert store.prune(prefix="_b") == 0
    assert store.stats()["checkpoints"] == 1


def test_engine_stamps_each_checkpoint_when_saved(tmp_path, monkeypatch):
    """The engine keeps one open database per path for the whole
    process; each row must still carry the time it was saved, not the
    time the database was first opened."""
    from repro.exp import checkpoints, engine
    clock = iter([1000.0, 2000.0])
    monkeypatch.setattr(checkpoints.time, "time", lambda: next(clock))
    path = str(tmp_path / "ck.sqlite")
    store = engine._checkpoint_store(path)
    try:
        sim = _mid_run_sim()
        for boundary in (100, 150):
            engine._save_checkpoint(store, "p1", boundary, sim,
                                    max_cycles=10**9, workload="mcf",
                                    defense="Unsafe")
    finally:
        engine._CKPT_STORES.pop(path).close()
    with sqlite3.connect(path) as conn:
        stamps = conn.execute("SELECT inst_count, recorded_at FROM "
                              "checkpoints ORDER BY inst_count").fetchall()
    assert stamps == [(100, 1000.0), (150, 2000.0)]


# -- prefix digests --------------------------------------------------------


def _point(**kwargs):
    defaults = dict(workload=resolve_workload("mcf"),
                    defense=registry["Unsafe"](), scale=1.0,
                    max_insts=2000)
    defaults.update(kwargs)
    return SweepPoint(**defaults)


def test_prefix_digest_ignores_horizon_and_policy():
    base = _point().prefix_digest()
    assert _point(max_insts=5000).prefix_digest() == base
    assert _point(max_cycles=123456).prefix_digest() == base
    assert _point(warmup_insts=500).prefix_digest() == base
    sampled = _point(warmup_insts=None,
                     sampling=RegionSampling(regions=4,
                                             window_insts=100))
    assert sampled.prefix_digest() == base


def test_prefix_digest_covers_execution_inputs():
    base = _point().prefix_digest()
    assert _point(defense=registry["GhostMinion"]()).prefix_digest() \
        != base
    assert _point(scale=0.5).prefix_digest() != base
    assert _point(workload=resolve_workload("hmmer")).prefix_digest() \
        != base


def test_cache_digest_forks_on_policy():
    """Policies shape the *result* (sampling) or assert an intent
    (warmup), so they are part of the result identity — unlike the
    prefix identity above."""
    base = _point().digest()
    assert _point(warmup_insts=500).digest() != base
    assert _point(sampling=RegionSampling(regions=4,
                                          window_insts=100)).digest() \
        != base


# -- engine policies -------------------------------------------------------


def test_resolve_checkpoints_policy(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_CHECKPOINT_DB, raising=False)
    assert resolve_checkpoints(None) is None
    assert resolve_checkpoints(False) is None
    assert resolve_checkpoints("x.sqlite") == "x.sqlite"
    with pytest.raises(ValueError):
        resolve_checkpoints(True)
    monkeypatch.setenv(ENV_CHECKPOINT_DB, "env.sqlite")
    assert resolve_checkpoints(None) == "env.sqlite"
    assert resolve_checkpoints(True) == "env.sqlite"
    assert resolve_checkpoints(False) is None


def test_warm_start_matches_cold_and_reports_telemetry(tmp_path):
    ck = str(tmp_path / "ck.sqlite")
    cold = run_points([_point()], cache=False).results
    warm_point = _point(warmup_insts=1500)
    creating = run_points([warm_point], cache=False, checkpoints=ck)
    restoring = run_points([warm_point], cache=False, checkpoints=ck)
    made, restored = (next(iter(creating.results)),
                      next(iter(restoring.results)))
    reference = next(iter(cold))
    # Byte-identical simulation outcome on all three paths.
    for result in (made, restored):
        assert result.cycles == reference.cycles
        assert result.insts == reference.insts
        assert result.stats == reference.stats
    # Telemetry: the creating run simulated everything, the restoring
    # run skipped the warm-up prefix.
    assert made.warm_insts == 0
    assert restored.warm_insts >= 1500
    assert creating.warm_insts() == 0
    assert restoring.warm_insts() >= 1500
    assert "warm-start avoided" in restoring.timing_summary()
    assert CheckpointDB(ck).stats()["checkpoints"] == 1


def test_warm_start_without_database_still_matches_cold():
    cold = next(iter(run_points([_point()], cache=False).results))
    warm = next(iter(run_points([_point(warmup_insts=1500)],
                                cache=False).results))
    assert (warm.cycles, warm.insts, warm.stats) == \
        (cold.cycles, cold.insts, cold.stats)
    assert warm.warm_insts == 0


def test_warm_start_shares_checkpoints_across_horizons(tmp_path):
    """Points differing only in max_insts share the warm-up prefix —
    the second horizon restores the first's checkpoint."""
    ck = str(tmp_path / "ck.sqlite")
    run_points([_point(max_insts=1800, warmup_insts=1500)],
               cache=False, checkpoints=ck)
    report = run_points([_point(max_insts=2000, warmup_insts=1500)],
                        cache=False, checkpoints=ck)
    assert report.warm_insts() >= 1500
    assert CheckpointDB(ck).stats()["checkpoints"] == 1


def test_warm_start_is_not_saved_past_program_end(tmp_path):
    """A warm-up that the program finishes before is a complete run,
    not a prefix: nothing is stored, results still match cold."""
    ck = str(tmp_path / "ck.sqlite")
    point = _point(max_insts=None, warmup_insts=10**9)
    report = run_points([point], cache=False, checkpoints=ck)
    result = next(iter(report.results))
    assert result.finished
    assert CheckpointDB(ck).stats()["checkpoints"] == 0


def test_sampling_generator_and_restore_passes_agree(tmp_path):
    ck = str(tmp_path / "ck.sqlite")
    point = _point(sampling=RegionSampling(regions=4,
                                           window_insts=300))
    generator = run_points([point], cache=False, checkpoints=ck)
    restore = run_points([point], cache=False, checkpoints=ck)
    first = next(iter(generator.results))
    second = next(iter(restore.results))
    assert first.to_json_dict() == second.to_json_dict()
    assert first.warm_insts == 0
    assert second.warm_insts > 0
    # Region boundaries 1..K-1 were snapshotted by the generator pass.
    assert CheckpointDB(ck).stats()["checkpoints"] == 3
    # Sampled results are marked estimates.
    assert not first.finished
    assert first.stats["sampled.regions"] == 4.0
    assert first.stats["sampled.measured_insts"] > 0


def test_sampling_without_store_is_deterministic():
    point = _point(sampling=RegionSampling(regions=3,
                                           window_insts=200))
    first = run_points([point], cache=False)
    second = run_points([point], cache=False)
    assert next(iter(first.results)).to_json_dict() == \
        next(iter(second.results)).to_json_dict()


def test_sampling_with_huge_window_degenerates_to_exact():
    cold = next(iter(run_points([_point()], cache=False).results))
    point = _point(sampling=RegionSampling(regions=1,
                                           window_insts=10**9))
    sampled = next(iter(run_points([point], cache=False).results))
    assert sampled.cycles == cold.cycles
    assert sampled.insts == cold.insts
    # Exact in every shared counter; only the sampled.* markers differ.
    shared = {name: value for name, value in sampled.stats.items()
              if not name.startswith("sampled.")}
    assert shared == cold.stats


def test_sampling_estimate_tracks_exact_run():
    cold = next(iter(run_points([_point()], cache=False).results))
    point = _point(sampling=RegionSampling(regions=4,
                                           window_insts=300))
    sampled = next(iter(run_points([point], cache=False).results))
    assert abs(sampled.cycles - cold.cycles) / cold.cycles < 0.25
    speedup = (cold.insts
               / sampled.stats["sampled.measured_insts"])
    assert speedup > 1.5, "sampling must simulate far fewer insts"


def test_sampling_validation():
    with pytest.raises(ValueError, match="max_insts"):
        run_points([_point(max_insts=None,
                           sampling=RegionSampling(regions=2,
                                                   window_insts=10))],
                   cache=False)
    with pytest.raises(ValueError, match="mutually exclusive"):
        run_points([_point(warmup_insts=100,
                           sampling=RegionSampling(regions=2,
                                                   window_insts=10))],
                   cache=False)
    with pytest.raises(ValueError):
        RegionSampling(regions=0, window_insts=10)
    with pytest.raises(ValueError):
        RegionSampling(regions=2, window_insts=0)


def test_warm_start_parallel_workers(tmp_path):
    """The pool path: worker processes open their own checkpoint-store
    connections (fork-inherited sqlite handles are never reused)."""
    ck = str(tmp_path / "ck.sqlite")
    points = [
        _point(warmup_insts=1500),
        _point(defense=registry["GhostMinion"](), warmup_insts=1500),
    ]
    first = run_points(points, jobs=2, cache=False, checkpoints=ck)
    second = run_points(points, jobs=2, cache=False, checkpoints=ck)
    assert CheckpointDB(ck).stats()["checkpoints"] == 2
    assert second.warm_insts() >= 3000
    for before, after in zip(first.results, second.results):
        assert before.to_json_dict() == after.to_json_dict()


# -- unusable checkpoints are misses -----------------------------------------


def _tamper_blobs(path, blob):
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("UPDATE checkpoints SET blob=?, nbytes=?",
                     (blob(conn), 0))
    conn.close()


#: A truncated blob, and a well-formed blob of another format.
UNUSABLE_BLOBS = {
    "truncated": lambda conn: conn.execute(
        "SELECT substr(blob, 1, 100) FROM checkpoints").fetchone()[0],
    "wrong-format": lambda conn: zlib.compress(pickle.dumps(
        {"format": CHECKPOINT_FORMAT + 1, "code": "x", "sim": None})),
}


@pytest.mark.parametrize("kind", sorted(UNUSABLE_BLOBS))
def test_unusable_warm_start_checkpoint_is_replaced(tmp_path, capsys,
                                                     kind):
    """A stored blob that does not restore is a miss: the run warns,
    simulates the prefix again, matches the cold run, and the row is
    replaced by a good one that the next run restores."""
    ck = str(tmp_path / "ck.sqlite")
    cold = next(iter(run_points([_point()], cache=False).results))
    point = _point(warmup_insts=1500)
    run_points([point], cache=False, checkpoints=ck)
    _tamper_blobs(ck, UNUSABLE_BLOBS[kind])
    capsys.readouterr()
    again = next(iter(run_points([point], cache=False,
                                 checkpoints=ck).results))
    assert "discarded unusable checkpoint" in capsys.readouterr().err
    assert (again.cycles, again.insts, again.stats) == \
        (cold.cycles, cold.insts, cold.stats)
    assert again.warm_insts == 0
    record = CheckpointDB(ck).lookup(point.prefix_digest(), 1500)
    assert Simulator.restore(record.blob).committed_insts() >= 1500
    restored = next(iter(run_points([point], cache=False,
                                    checkpoints=ck).results))
    assert restored.warm_insts >= 1500
    assert restored.stats == cold.stats


@pytest.mark.parametrize("kind", sorted(UNUSABLE_BLOBS))
def test_unusable_sampling_checkpoint_falls_back_to_generator(
        tmp_path, capsys, kind):
    """The sampled restore pass restores every boundary first; one that
    does not restore sends the point through the generator pass, which
    saves the missing boundary again."""
    ck = str(tmp_path / "ck.sqlite")
    point = _point(sampling=RegionSampling(regions=3, window_insts=300))
    generator = next(iter(run_points([point], cache=False,
                                     checkpoints=ck).results))
    _tamper_blobs(ck, UNUSABLE_BLOBS[kind])
    capsys.readouterr()
    fallback = next(iter(run_points([point], cache=False,
                                    checkpoints=ck).results))
    assert "discarded unusable checkpoint" in capsys.readouterr().err
    assert fallback.to_json_dict() == generator.to_json_dict()
    assert fallback.warm_insts == 0
    assert CheckpointDB(ck).stats()["checkpoints"] == 2
    restored = next(iter(run_points([point], cache=False,
                                    checkpoints=ck).results))
    assert restored.warm_insts > 0
    assert restored.to_json_dict() == generator.to_json_dict()


#: The file layout older builds wrote: checkpoints beside a ``results``
#: table of point results and a ``metrics`` table of traced series.
OLDER_BUILD_TABLES = """
CREATE TABLE store_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE checkpoints (
    prefix_digest TEXT NOT NULL, inst_count INTEGER NOT NULL,
    format INTEGER NOT NULL, insts INTEGER NOT NULL,
    cycles INTEGER NOT NULL, nbytes INTEGER NOT NULL,
    blob BLOB NOT NULL, workload TEXT, defense TEXT, host TEXT,
    repro_version TEXT, recorded_at REAL,
    PRIMARY KEY (prefix_digest, inst_count));
CREATE TABLE results (
    digest TEXT PRIMARY KEY, key TEXT NOT NULL, workload TEXT NOT NULL,
    defense TEXT NOT NULL, variant TEXT NOT NULL, scale REAL NOT NULL,
    cycles INTEGER NOT NULL, insts INTEGER NOT NULL,
    finished INTEGER NOT NULL, stats TEXT NOT NULL,
    payload TEXT NOT NULL, sweep TEXT, source TEXT, wall_seconds REAL,
    host TEXT, repro_version TEXT, recorded_at REAL);
CREATE TABLE metrics (
    digest TEXT PRIMARY KEY, interval INTEGER NOT NULL,
    columns TEXT NOT NULL, samples TEXT NOT NULL, host TEXT,
    repro_version TEXT, recorded_at REAL);
INSERT INTO store_meta VALUES ('schema_version', '1'),
    ('checkpoint_schema_version', '1'), ('metrics_schema_version', '1');
INSERT INTO results VALUES ('d', 'k', 'mcf', 'Unsafe', 'base', 1.0,
    10, 5, 1, '{}', '{}', 't', 'engine', 0.1, 'h', '0', 1.0);
INSERT INTO metrics VALUES ('d', 100, '["cycle"]', '[[0]]', 'h', '0',
    1.0);
"""


def test_older_build_file_opens_and_its_checkpoints_restore(tmp_path):
    """A file written by a build that also kept point results and
    metrics series in it still opens; its checkpoints restore and
    warm-start a run that matches the cold one."""
    ck = str(tmp_path / "older.sqlite")
    point = _point(warmup_insts=1500)
    cold = next(iter(run_points([_point()], cache=False).results))
    sim = Simulator(get_workload("mcf").build(1.0), registry["Unsafe"]())
    sim.run(max_insts=1500)
    conn = sqlite3.connect(ck)
    conn.executescript(OLDER_BUILD_TABLES)
    with conn:
        blob = sim.snapshot()
        conn.execute(
            "INSERT INTO checkpoints VALUES (?,?,?,?,?,?,?,?,?,?,?,?)",
            (point.prefix_digest(), 1500, CHECKPOINT_FORMAT,
             sim.committed_insts(), sim.cycle, len(blob), blob, "mcf",
             "Unsafe", "h", "0", 1.0))
    conn.close()
    with CheckpointDB(ck) as db:
        assert db.stats()["checkpoints"] == 1
        record = db.lookup(point.prefix_digest(), 1500)
        assert Simulator.restore(record.blob).cycle == sim.cycle
    warm = next(iter(run_points([point], cache=False,
                                checkpoints=ck).results))
    assert warm.warm_insts >= 1500
    assert (warm.cycles, warm.insts, warm.stats) == \
        (cold.cycles, cold.insts, cold.stats)
