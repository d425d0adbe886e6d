"""The checkpoint database: warm-up snapshots in one sqlite file.

The warm-start (``warmup_insts``) and region-sampling (``sampling``)
policies save whole-machine snapshots (:mod:`repro.sim.checkpoint`)
here, keyed by ``(prefix_digest, inst_count)``: the prefix digest (see
:meth:`repro.exp.spec.SweepPoint.prefix_digest`) covers exactly the
inputs that determine execution up to the snapshot boundary, so any two
points agreeing on it share one warm-up run.  See
``docs/checkpoints.md``.

Blobs are first-write-wins with no agreement check: pickle bytes are
not canonical (two producers of the *same* state may serialize it
differently), and semantic agreement is already guaranteed by the
digest keying plus the restore-equivalence matrix in
``tests/test_scheduler_equivalence.py``.  Checkpoints are a cache —
warm-up state is always regenerable — so a blob that fails to restore
is discarded (:meth:`CheckpointDB.discard`) and simulated again.

The engine and ``repro store`` import this module lazily, so
``import repro.cli`` never loads ``sqlite3``.
"""

from __future__ import annotations

import os
import socket
import sqlite3
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Bump on incompatible changes to the file layout.  Opening a database
#: written by a different schema version is a hard error.  Files written
#: by older builds also hold ``results``/``metrics`` tables and a
#: ``metrics_schema_version`` key; this build ignores them, so they
#: open unchanged.
STORE_SCHEMA_VERSION = 1

#: Version of the ``checkpoints`` table layout, tracked separately from
#: :data:`STORE_SCHEMA_VERSION` (the table was added to v1 files after
#: the fact).  An incompatible bump merely orphans blobs.
CHECKPOINT_SCHEMA_VERSION = 1

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
"""

#: ``store_meta`` version keys: (key, version, what to do on mismatch).
_VERSION_KEYS = (
    ("schema_version", STORE_SCHEMA_VERSION, ""),
    ("checkpoint_schema_version", CHECKPOINT_SCHEMA_VERSION,
     " (prune the checkpoints with a matching build, then reopen)"),
)


class CheckpointDBError(RuntimeError):
    """Unusable checkpoint database (bad schema, not sqlite)."""


@dataclass(frozen=True)
class CheckpointRecord:
    """One stored warm-up checkpoint.

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
    """Provenance recorded alongside each checkpoint.

    The caller supplies the values (the database never reads the clock
    itself); :meth:`capture` is the constructor the engine uses, so
    ``repro store prune --older-than`` can age checkpoints out.
    """

    host: str = ""
    repro_version: str = ""
    recorded_at: float = 0.0

    @classmethod
    def capture(cls) -> "RunMeta":
        import repro
        # Row metadata for age pruning; never enters a result payload.
        now = time.time()  # determinism: allow wall-clock: prune age
        return cls(host=socket.gethostname(),
                   repro_version=repro.__version__, recorded_at=now)


class CheckpointDB:
    """One sqlite file of warm-up checkpoints."""

    def __init__(self, path: str,
                 run_meta: Optional[RunMeta] = None) -> None:
        self.path = os.path.expanduser(str(path))
        self.run_meta = run_meta or RunMeta()
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(self.path)
        self._conn.row_factory = sqlite3.Row
        self._ensure_schema()

    def _ensure_schema(self) -> None:
        try:
            self._conn.executescript(_TABLES)
        except sqlite3.DatabaseError as exc:
            raise CheckpointDBError("%s is not a checkpoint database: %s"
                                    % (self.path, exc)) from exc
        for key, version, hint in _VERSION_KEYS:
            row = self._conn.execute(
                "SELECT value FROM store_meta WHERE key='%s'" % key
            ).fetchone()
            if row is None:
                # Pool workers sharing a checkpoint database may create
                # the same fresh file at once: the first writer wins,
                # and ``OR IGNORE`` keeps the others from failing on
                # the key.
                self._conn.execute(
                    "INSERT OR IGNORE INTO store_meta (key, value) "
                    "VALUES (?, ?)", (key, str(version)))
                self._conn.commit()
            elif row["value"] != str(version):
                raise CheckpointDBError(
                    "%s uses %s %s; this build speaks %d%s"
                    % (self.path, key.replace("_", " "), row["value"],
                       version, hint))

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CheckpointDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def save(self, prefix_digest: str, inst_count: int, blob: bytes, *,
             fmt: int, insts: int, cycles: int,
             workload: Optional[str] = None,
             defense: Optional[str] = None) -> bool:
        """Store one checkpoint; returns True if a new row was written
        (an existing row for the same key wins and is kept)."""
        meta = self.run_meta
        cursor = self._conn.execute(
            "INSERT INTO checkpoints (prefix_digest, inst_count, "
            "format, insts, cycles, nbytes, blob, workload, defense, "
            "host, repro_version, recorded_at) VALUES "
            "(?,?,?,?,?,?,?,?,?,?,?,?) "
            "ON CONFLICT (prefix_digest, inst_count) DO NOTHING",
            (prefix_digest, inst_count, fmt, insts, cycles, len(blob),
             sqlite3.Binary(blob), workload, defense, meta.host,
             meta.repro_version, meta.recorded_at))
        self._conn.commit()
        return cursor.rowcount > 0

    def lookup(self, prefix_digest: str, inst_count: int
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

    def discard(self, prefix_digest: str, inst_count: int) -> None:
        """Delete one checkpoint (a blob that failed to restore), so
        the next :meth:`save` for its key lands."""
        self._conn.execute(
            "DELETE FROM checkpoints WHERE prefix_digest=? AND "
            "inst_count=?", (prefix_digest, inst_count))
        self._conn.commit()

    def counts(self, prefix_digest: str) -> List[int]:
        """Snapshot boundaries stored for one prefix, ascending."""
        return [row[0] for row in self._conn.execute(
            "SELECT inst_count FROM checkpoints WHERE prefix_digest=? "
            "ORDER BY inst_count", (prefix_digest,))]

    def stats(self) -> Dict[str, object]:
        """File size plus checkpoint count, bytes and prefixes."""
        row = self._conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(nbytes), 0), "
            "COUNT(DISTINCT prefix_digest) FROM checkpoints").fetchone()
        try:
            size = os.path.getsize(self.path)
        except OSError:
            size = 0
        return {"path": self.path, "schema_version": STORE_SCHEMA_VERSION,
                "bytes": size, "checkpoints": row[0],
                "checkpoint_bytes": row[1], "checkpoint_prefixes": row[2],
                "checkpoint_schema_version": CHECKPOINT_SCHEMA_VERSION}

    def prune(self, older_than: Optional[float] = None,
              prefix: Optional[str] = None,
              all_rows: bool = False) -> int:
        """Delete checkpoints; returns rows removed.

        ``older_than`` is an absolute ``recorded_at`` cutoff (rows
        recorded strictly before it go); ``prefix`` matches
        ``prefix_digest`` by string prefix, so a truncated digest from
        ``store stats`` output works.  Filters compose (AND);
        ``all_rows=True`` drops every checkpoint.  The file is VACUUMed
        whenever rows were removed — blobs dominate its size, and a
        prune that does not shrink the file would defeat its purpose.
        """
        if not all_rows and older_than is None and prefix is None:
            raise ValueError(
                "prune needs a filter (older_than/prefix) or "
                "all_rows=True")
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
