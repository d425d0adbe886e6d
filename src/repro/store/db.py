"""The sqlite-backed result store.

A :class:`ResultStore` promotes the flat per-point JSON cache
(:class:`repro.exp.cache.ResultCache`) to a durable, queryable database:
one row per simulated point, keyed by the engine's content digest, with
the canonical result payload plus run metadata (wall seconds, host,
repro version, timestamp) that the JSON cache never records.  Figures
and EXPERIMENTS tables regenerate from accumulated history instead of
re-simulation (``repro report``), and distributed sweep shards gather
into one store with conflict detection (``repro merge``).

Identity and conflicts
----------------------
Rows are keyed by :meth:`repro.exp.spec.SweepPoint.digest` — the sha256
of everything the simulation is a pure function of.  Two records with
the same digest must therefore agree on the *simulation outcome*
(cycles, insts, finished, stats); a mismatch means non-deterministic
simulators or a tampered shard and is a hard
:class:`StoreConflictError`.  Display fields (``key``, ``variant``
label) are a sweep's *view* of a point and may legitimately differ
between producers — first write wins, and the engine re-keys lookups
per sweep, exactly as the JSON cache does.

Write-through
-------------
A :class:`ResultStore` (or a :class:`StoreCache` wrapper) quacks like
the engine's cache — ``lookup(digest)`` / ``store(result)`` — so
passing one as ``cache=`` to :func:`repro.exp.engine.run_sweep` records
points into the database as they complete.
"""

from __future__ import annotations

import json
import os
import socket
import sqlite3
import sys
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.exp.cache import CorruptEntry, check_entry
from repro.exp.resultset import PointResult, ResultSet

#: Bump on incompatible changes to the table layout below.  Opening a
#: store written by a different schema version is a hard error: result
#: databases are long-lived artefacts and must never be reinterpreted
#: silently.
STORE_SCHEMA_VERSION = 1

#: Version of the ``checkpoints`` table layout, tracked separately from
#: :data:`STORE_SCHEMA_VERSION`: adding the table to an existing v1
#: store is backward- and forward-compatible (old builds ignore it), so
#: the results schema version — and with it every stored result — is
#: left untouched.  Checkpoints are a *cache* (warm-up state is always
#: regenerable), so an incompatible bump here merely orphans blobs.
CHECKPOINT_SCHEMA_VERSION = 1

#: Version of the ``metrics`` table layout (cycle-domain metrics series
#: recorded by traced runs — see ``docs/observability.md``), tracked
#: separately for the same reason as the checkpoint table: adding it to
#: an existing store is additive, and metrics are regenerable telemetry
#: (re-run the point with ``--metrics-interval``), so an incompatible
#: bump merely orphans old series.
METRICS_SCHEMA_VERSION = 1

_TABLES = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS checkpoints (
    prefix_digest TEXT NOT NULL,
    inst_count    INTEGER NOT NULL,
    format        INTEGER NOT NULL,
    insts         INTEGER NOT NULL,
    cycles        INTEGER NOT NULL,
    nbytes        INTEGER NOT NULL,
    blob          BLOB NOT NULL,
    workload      TEXT,
    defense       TEXT,
    host          TEXT,
    repro_version TEXT,
    recorded_at   REAL,
    PRIMARY KEY (prefix_digest, inst_count)
);
CREATE TABLE IF NOT EXISTS results (
    digest        TEXT PRIMARY KEY,
    key           TEXT NOT NULL,
    workload      TEXT NOT NULL,
    defense       TEXT NOT NULL,
    variant       TEXT NOT NULL,
    scale         REAL NOT NULL,
    cycles        INTEGER NOT NULL,
    insts         INTEGER NOT NULL,
    finished      INTEGER NOT NULL,
    stats         TEXT NOT NULL,
    payload       TEXT NOT NULL,
    sweep         TEXT,
    source        TEXT,
    wall_seconds  REAL,
    host          TEXT,
    repro_version TEXT,
    recorded_at   REAL
);
CREATE INDEX IF NOT EXISTS idx_results_workload ON results (workload);
CREATE INDEX IF NOT EXISTS idx_results_defense  ON results (defense);
CREATE INDEX IF NOT EXISTS idx_results_sweep    ON results (sweep);
CREATE TABLE IF NOT EXISTS metrics (
    digest        TEXT PRIMARY KEY,
    interval      INTEGER NOT NULL,
    columns       TEXT NOT NULL,
    samples       TEXT NOT NULL,
    host          TEXT,
    repro_version TEXT,
    recorded_at   REAL
);
"""

#: Columns surfaced by :meth:`ResultStore.rows`, in schema order.
ROW_COLUMNS = ("digest", "key", "workload", "defense", "variant",
               "scale", "cycles", "insts", "finished", "sweep",
               "source", "wall_seconds", "host", "repro_version",
               "recorded_at")


class StoreError(RuntimeError):
    """Generic result-store failure (bad schema, unusable file)."""


class StoreConflictError(StoreError):
    """Same digest, different simulation payload: refusing to merge.

    This is always a hard error — it means two producers disagree about
    the outcome of the *same* simulation, so one of them is wrong
    (non-deterministic build, tampered shard, hand-edited store).
    """

    def __init__(self, digest: str, existing_source: Optional[str],
                 new_source: Optional[str]) -> None:
        self.digest = digest
        super().__init__(
            "conflicting results for digest %s: existing record (from "
            "%s) disagrees with new record (from %s) on the simulation "
            "outcome" % (digest, existing_source or "unknown",
                         new_source or "unknown"))


class MissingStoreResultError(StoreError):
    """Strict replay asked the store for a point it does not hold."""

    def __init__(self, digest: str) -> None:
        self.digest = digest
        super().__init__(
            "result store holds no record for digest %s — run the "
            "sweep with --db first (or pass --allow-sim to simulate "
            "missing points)" % digest)


@dataclass(frozen=True)
class CheckpointRecord:
    """One stored warm-up checkpoint (see ``docs/checkpoints.md``).

    ``inst_count`` is the requested snapshot boundary (the key);
    ``insts``/``cycles`` are the machine's actual committed-instruction
    and cycle counts at the snapshot (commit width can overshoot the
    requested boundary within the final cycle).
    """

    prefix_digest: str
    inst_count: int
    format: int
    insts: int
    cycles: int
    blob: bytes


@dataclass(frozen=True)
class RunMeta:
    """Provenance recorded alongside each stored result.

    The caller supplies the values (the store never calls the clock
    itself) so ingest is reproducible;  :meth:`capture` is the
    convenience constructor the CLI uses.
    """

    host: str = ""
    repro_version: str = ""
    recorded_at: float = 0.0

    @classmethod
    def capture(cls) -> "RunMeta":
        import repro
        return cls(host=socket.gethostname(),
                   repro_version=repro.__version__,
                   recorded_at=time.time())


def sim_payload(payload: Dict[str, object]) -> str:
    """The digest-covered half of a canonical result payload.

    ``key``/``variant`` (and through them nothing else) are a sweep's
    display view of a point; everything the digest pins — workload,
    defense, scale and the simulation outcome — must agree between any
    two records sharing a digest.  Conflict detection compares this
    canonical string.
    """
    body = {name: payload[name] for name in payload
            if name not in ("key", "variant")}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


class ResultStore:
    """One sqlite file of point results, keyed by engine digest."""

    def __init__(self, path: str,
                 run_meta: Optional[RunMeta] = None) -> None:
        self.path = os.path.expanduser(str(path))
        self.run_meta = run_meta or RunMeta()
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(self.path)
        self._conn.row_factory = sqlite3.Row
        self._ensure_schema()

    # -- lifecycle ------------------------------------------------------

    def _ensure_schema(self) -> None:
        try:
            self._conn.executescript(_TABLES)
            row = self._conn.execute(
                "SELECT value FROM store_meta WHERE key='schema_version'"
            ).fetchone()
        except sqlite3.DatabaseError as exc:
            raise StoreError("%s is not a result store: %s"
                             % (self.path, exc)) from exc
        if row is None:
            # Pool workers sharing a checkpoint database may create the
            # same fresh store at once: the first writer wins, and
            # ``OR IGNORE`` keeps the others from failing on the key.
            self._conn.execute(
                "INSERT OR IGNORE INTO store_meta (key, value) VALUES "
                "('schema_version', ?)", (str(STORE_SCHEMA_VERSION),))
            self._conn.commit()
        elif row["value"] != str(STORE_SCHEMA_VERSION):
            raise StoreError(
                "%s uses store schema version %s; this build speaks %d"
                % (self.path, row["value"], STORE_SCHEMA_VERSION))
        # The checkpoint table carries its own version key (absent from
        # stores written before the table existed; executescript above
        # just added the empty table to those, at the current layout).
        ck = self._conn.execute(
            "SELECT value FROM store_meta WHERE "
            "key='checkpoint_schema_version'").fetchone()
        if ck is None:
            self._conn.execute(
                "INSERT OR IGNORE INTO store_meta (key, value) VALUES "
                "('checkpoint_schema_version', ?)",
                (str(CHECKPOINT_SCHEMA_VERSION),))
            self._conn.commit()
        elif ck["value"] != str(CHECKPOINT_SCHEMA_VERSION):
            raise StoreError(
                "%s uses checkpoint schema version %s; this build "
                "speaks %d (prune the checkpoints with a matching "
                "build, then reopen)"
                % (self.path, ck["value"], CHECKPOINT_SCHEMA_VERSION))
        # Same additive pattern for the metrics table.
        mk = self._conn.execute(
            "SELECT value FROM store_meta WHERE "
            "key='metrics_schema_version'").fetchone()
        if mk is None:
            self._conn.execute(
                "INSERT OR IGNORE INTO store_meta (key, value) VALUES "
                "('metrics_schema_version', ?)",
                (str(METRICS_SCHEMA_VERSION),))
            self._conn.commit()
        elif mk["value"] != str(METRICS_SCHEMA_VERSION):
            raise StoreError(
                "%s uses metrics schema version %s; this build speaks "
                "%d (re-record traced runs with a matching build)"
                % (self.path, mk["value"], METRICS_SCHEMA_VERSION))

    def close(self) -> None:
        self._conn.close()

    def commit(self) -> None:
        self._conn.commit()

    def rollback(self) -> None:
        self._conn.rollback()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writes ---------------------------------------------------------

    def insert(self, result: PointResult, *,
               sweep: Optional[str] = None,
               source: Optional[str] = None,
               run_meta: Optional[RunMeta] = None,
               commit: bool = True) -> bool:
        """Record one result; returns True if a new row was written.

        An existing row with the same digest and the same simulation
        outcome is a no-op duplicate (first write wins, including its
        run metadata); a disagreeing row raises
        :class:`StoreConflictError`.
        """
        payload = result.to_json_dict()
        meta = run_meta or self.run_meta
        # A single conflict-tolerant INSERT (rather than check-then-
        # insert) so two processes writing through to the same store
        # file cannot race into an IntegrityError: the loser simply
        # falls through to the agreement check below.
        cursor = self._conn.execute(
            "INSERT INTO results (digest, key, workload, defense, "
            "variant, scale, cycles, insts, finished, stats, payload, "
            "sweep, source, wall_seconds, host, repro_version, "
            "recorded_at) VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?) "
            "ON CONFLICT (digest) DO NOTHING",
            (result.digest, result.key, result.workload, result.defense,
             result.variant, result.scale, result.cycles, result.insts,
             int(result.finished),
             json.dumps(payload["stats"], sort_keys=True,
                        separators=(",", ":")),
             json.dumps(payload, sort_keys=True, separators=(",", ":")),
             sweep, source, result.wall_seconds, meta.host,
             meta.repro_version, meta.recorded_at))
        if cursor.rowcount == 0:
            existing = self._conn.execute(
                "SELECT payload, source FROM results WHERE digest=?",
                (result.digest,)).fetchone()
            if (existing is not None
                    and sim_payload(json.loads(existing["payload"]))
                    == sim_payload(payload)):
                return False
            raise StoreConflictError(
                result.digest,
                existing["source"] if existing is not None else None,
                source)
        if commit:
            self._conn.commit()
        return True

    def insert_many(self, results: Iterable[PointResult], *,
                    sweep: Optional[str] = None,
                    source: Optional[str] = None,
                    run_meta: Optional[RunMeta] = None) -> int:
        """Insert a batch in one transaction; returns new-row count."""
        inserted = 0
        try:
            for result in results:
                if self.insert(result, sweep=sweep, source=source,
                               run_meta=run_meta, commit=False):
                    inserted += 1
        except BaseException:
            self._conn.rollback()
            raise
        self._conn.commit()
        return inserted

    # -- engine-cache protocol (write-through mode) ---------------------

    def lookup(self, digest: str) -> Optional[PointResult]:
        """Engine-cache hit path: rehydrate the canonical payload.

        A row that fails the cache's checks (:func:`check_entry`) is a
        miss: it is deleted with a warning on stderr, so the re-run
        point can be recorded in its place.
        """
        row = self._conn.execute(
            "SELECT payload FROM results WHERE digest=?",
            (digest,)).fetchone()
        if row is None:
            return None
        result = self._checked(digest, row["payload"], "deleted")
        if result is None:
            self._conn.execute("DELETE FROM results WHERE digest=?",
                               (digest,))
            self._conn.commit()
        return result

    def _checked(self, digest: str, payload: str,
                 action: str) -> Optional[PointResult]:
        """The result a row holds, or ``None`` with a warning naming
        ``action`` for a row that can never be served."""
        try:
            entry = json.loads(payload)
        except ValueError:
            reason = "invalid JSON"
        else:
            try:
                return check_entry(entry, digest)
            except CorruptEntry as exc:
                reason = str(exc)
        print("warning: %s corrupt result-store row (%s): %s in %s"
              % (action, reason, digest, self.path), file=sys.stderr)
        return None

    def store(self, result: PointResult) -> None:
        """Engine-cache fill path: record an executed point."""
        self.insert(result, source="engine")

    # -- queries --------------------------------------------------------

    def __len__(self) -> int:
        return self._conn.execute(
            "SELECT COUNT(*) FROM results").fetchone()[0]

    def has(self, digest: str) -> bool:
        return self._conn.execute(
            "SELECT 1 FROM results WHERE digest=?",
            (digest,)).fetchone() is not None

    def digests(self) -> List[str]:
        return [row[0] for row in self._conn.execute(
            "SELECT digest FROM results ORDER BY rowid")]

    def _where(self, filters: Dict[str, object]) -> tuple:
        clauses, params = [], []
        for column, value in filters.items():
            if value is None:
                continue
            clauses.append("%s=?" % column)
            params.append(value)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        return where, params

    def rows(self, workload: Optional[str] = None,
             defense: Optional[str] = None,
             variant: Optional[str] = None,
             sweep: Optional[str] = None,
             scale: Optional[float] = None) -> List[Dict[str, object]]:
        """Raw result rows (insertion order) including run metadata."""
        where, params = self._where({
            "workload": workload, "defense": defense,
            "variant": variant, "sweep": sweep, "scale": scale})
        cursor = self._conn.execute(
            "SELECT %s FROM results%s ORDER BY rowid"
            % (", ".join(ROW_COLUMNS), where), params)
        return [dict(row) for row in cursor]

    def select(self, workload: Optional[str] = None,
               defense: Optional[str] = None,
               variant: Optional[str] = None,
               sweep: Optional[str] = None,
               scale: Optional[float] = None) -> ResultSet:
        """Query matching points into a :class:`ResultSet`.

        Points come back in insertion order under their stored keys,
        except rows that fail the cache's checks: those are skipped with
        a warning on stderr.  Two stored views of distinct simulations can share a key (e.g.
        the same sweep at two scales), in which case ``ResultSet.add``
        raises — narrow the filters (``scale=``, ``sweep=``) to
        disambiguate.
        """
        where, params = self._where({
            "workload": workload, "defense": defense,
            "variant": variant, "sweep": sweep, "scale": scale})
        results = ResultSet()
        for row in self._conn.execute(
                "SELECT digest, payload FROM results%s ORDER BY rowid"
                % where, params):
            result = self._checked(row["digest"], row["payload"],
                                   "skipped")
            if result is not None:
                results.add(result)
        return results

    def stats(self) -> Dict[str, object]:
        """Store-level summary: row counts and file size."""
        count = len(self)
        distinct = {}
        for column in ("workload", "defense", "sweep"):
            distinct[column + "s"] = self._conn.execute(
                "SELECT COUNT(DISTINCT %s) FROM results WHERE %s IS "
                "NOT NULL" % (column, column)).fetchone()[0]
        try:
            size = os.path.getsize(self.path)
        except OSError:
            size = 0
        return {"path": self.path, "schema_version": STORE_SCHEMA_VERSION,
                "points": count, "bytes": size, **distinct,
                **self.checkpoint_stats(), **self.metrics_stats()}

    # -- cycle-domain metrics -------------------------------------------
    #
    # One series per result digest: the ``series()`` dict of
    # repro.obs.metrics.MetricsSampler, recorded by traced runs and
    # queried back by ``repro report timeline``.  Last write wins:
    # unlike results, a re-traced point may legitimately carry a
    # different sampling interval, and the series is regenerable
    # telemetry, not part of the canonical result payload.

    def metrics_save(self, digest: str, series: Dict[str, object], *,
                     run_meta: Optional[RunMeta] = None,
                     commit: bool = True) -> None:
        """Store (or replace) the metrics series for ``digest``."""
        meta = run_meta or self.run_meta
        self._conn.execute(
            "INSERT INTO metrics (digest, interval, columns, samples, "
            "host, repro_version, recorded_at) VALUES (?,?,?,?,?,?,?) "
            "ON CONFLICT (digest) DO UPDATE SET interval=excluded."
            "interval, columns=excluded.columns, samples=excluded."
            "samples, host=excluded.host, repro_version=excluded."
            "repro_version, recorded_at=excluded.recorded_at",
            (digest, int(series.get("interval", 0)),
             json.dumps(series.get("columns", []),
                        separators=(",", ":")),
             json.dumps(series.get("samples", []),
                        separators=(",", ":")),
             meta.host, meta.repro_version, meta.recorded_at))
        if commit:
            self._conn.commit()

    def metrics_lookup(self, digest: str) -> Optional[Dict[str, object]]:
        """The stored series for ``digest`` (the ``series()`` shape),
        or None."""
        row = self._conn.execute(
            "SELECT interval, columns, samples FROM metrics WHERE "
            "digest=?", (digest,)).fetchone()
        if row is None:
            return None
        return {"interval": row["interval"],
                "columns": json.loads(row["columns"]),
                "samples": json.loads(row["samples"])}

    def metrics_digests(self) -> List[str]:
        """Digests with a stored metrics series, insertion order."""
        return [row[0] for row in self._conn.execute(
            "SELECT digest FROM metrics ORDER BY rowid")]

    def metrics_stats(self) -> Dict[str, object]:
        """Metrics-table summary, folded into :meth:`stats`."""
        count = self._conn.execute(
            "SELECT COUNT(*) FROM metrics").fetchone()[0]
        return {"metrics_series": count,
                "metrics_schema_version": METRICS_SCHEMA_VERSION}

    # -- checkpoints ----------------------------------------------------
    #
    # Warm-up simulator snapshots, keyed by (prefix_digest, inst_count):
    # the prefix digest (see SweepPoint.prefix_digest) covers exactly
    # the inputs that determine execution up to the snapshot boundary,
    # so any two points agreeing on it share one warm-up run.  Blobs are
    # first-write-wins with no agreement check: unlike result payloads,
    # pickle bytes are not canonical (two producers of the *same* state
    # may serialize it differently), and semantic agreement is already
    # guaranteed by the digest keying plus the restore-equivalence
    # matrix in tests/test_scheduler_equivalence.py.

    def checkpoint_save(self, prefix_digest: str, inst_count: int,
                        blob: bytes, *, fmt: int, insts: int,
                        cycles: int, workload: Optional[str] = None,
                        defense: Optional[str] = None,
                        run_meta: Optional[RunMeta] = None,
                        commit: bool = True) -> bool:
        """Store one checkpoint; returns True if a new row was written
        (an existing row for the same key wins and is kept)."""
        meta = run_meta or self.run_meta
        cursor = self._conn.execute(
            "INSERT INTO checkpoints (prefix_digest, inst_count, "
            "format, insts, cycles, nbytes, blob, workload, defense, "
            "host, repro_version, recorded_at) VALUES "
            "(?,?,?,?,?,?,?,?,?,?,?,?) "
            "ON CONFLICT (prefix_digest, inst_count) DO NOTHING",
            (prefix_digest, inst_count, fmt, insts, cycles, len(blob),
             sqlite3.Binary(blob), workload, defense, meta.host,
             meta.repro_version, meta.recorded_at))
        if commit:
            self._conn.commit()
        return cursor.rowcount > 0

    def checkpoint_lookup(self, prefix_digest: str, inst_count: int
                          ) -> Optional[CheckpointRecord]:
        row = self._conn.execute(
            "SELECT format, insts, cycles, blob FROM checkpoints "
            "WHERE prefix_digest=? AND inst_count=?",
            (prefix_digest, inst_count)).fetchone()
        if row is None:
            return None
        return CheckpointRecord(
            prefix_digest=prefix_digest, inst_count=inst_count,
            format=row["format"], insts=row["insts"],
            cycles=row["cycles"], blob=bytes(row["blob"]))

    def checkpoint_counts(self, prefix_digest: str) -> List[int]:
        """Snapshot boundaries stored for one prefix, ascending."""
        return [row[0] for row in self._conn.execute(
            "SELECT inst_count FROM checkpoints WHERE prefix_digest=? "
            "ORDER BY inst_count", (prefix_digest,))]

    def checkpoint_stats(self) -> Dict[str, object]:
        """Checkpoint-table summary, folded into :meth:`stats`."""
        row = self._conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(nbytes), 0), "
            "COUNT(DISTINCT prefix_digest) FROM checkpoints").fetchone()
        return {"checkpoints": row[0], "checkpoint_bytes": row[1],
                "checkpoint_prefixes": row[2],
                "checkpoint_schema_version": CHECKPOINT_SCHEMA_VERSION}

    def checkpoint_prune(self, older_than: Optional[float] = None,
                         prefix: Optional[str] = None,
                         all_rows: bool = False) -> int:
        """Delete checkpoints; returns rows removed.

        ``older_than`` is an absolute ``recorded_at`` cutoff (rows
        recorded strictly before it go); ``prefix`` matches
        ``prefix_digest`` by string prefix, so a truncated digest from
        ``store stats`` output works.  Filters compose (AND);
        ``all_rows=True`` drops the table's contents.  The file is
        VACUUMed whenever rows were removed — checkpoint blobs dominate
        store size, and a prune that does not shrink the file would
        defeat its purpose.
        """
        if not all_rows and older_than is None and prefix is None:
            raise ValueError(
                "checkpoint_prune needs a filter (older_than/prefix) "
                "or all_rows=True")
        clauses, params = [], []
        if older_than is not None:
            clauses.append("recorded_at < ?")
            params.append(older_than)
        if prefix is not None:
            # Escape LIKE wildcards: a pasted "%" must match a literal
            # "%" (i.e. nothing, for hex digests), not every row.
            escaped = (prefix.replace("\\", "\\\\")
                       .replace("%", "\\%").replace("_", "\\_"))
            clauses.append("prefix_digest LIKE ? ESCAPE '\\'")
            params.append(escaped + "%")
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        cursor = self._conn.execute(
            "DELETE FROM checkpoints%s" % where, params)
        removed = cursor.rowcount
        self._conn.commit()
        if removed:
            self._conn.execute("VACUUM")
        return removed


class StoreCache:
    """Engine-cache adapter over a :class:`ResultStore` with a policy.

    ``mode`` is one of:

    - ``"rw"``: hits come from the store, executed points are recorded
      (write-through — the default for ``--db``);
    - ``"ro"``: hits come from the store, executed points are *not*
      recorded;
    - ``"strict"``: replay only — a miss raises
      :class:`MissingStoreResultError` before any simulation runs
      (``repro report`` without ``--allow-sim``).
    """

    MODES = ("rw", "ro", "strict")

    def __init__(self, db: ResultStore, mode: str = "rw") -> None:
        if mode not in self.MODES:
            raise ValueError("mode must be one of %r" % (self.MODES,))
        self.db = db
        self.mode = mode

    def lookup(self, digest: str) -> Optional[PointResult]:
        hit = self.db.lookup(digest)
        if hit is None and self.mode == "strict":
            raise MissingStoreResultError(digest)
        return hit

    def store(self, result: PointResult) -> None:
        if self.mode == "rw":
            self.db.insert(result, source="engine")

    def metrics_save(self, digest: str,
                     series: Dict[str, object]) -> None:
        """Traced-run metrics write-through (respects the policy)."""
        if self.mode == "rw":
            self.db.metrics_save(digest, series)
