"""Backfill: ingest an existing JSON result cache into a store.

Every entry the flat content-addressed cache
(:class:`repro.exp.cache.ResultCache`) accumulated before the store
existed is one ``<dir>/<digest[:2]>/<digest>.json`` file.  This walks
them, validates each against the cache schema version, and inserts the
survivors with ``source="backfill"`` — so years of per-point JSON
become queryable history in one ``repro store backfill`` invocation.

The JSON cache records no run metadata, so backfilled rows carry the
caller's :class:`~repro.store.db.RunMeta` (the ingest provenance) and a
zero wall-seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exp.cache import CorruptEntry, ResultCache, read_entry
from repro.store.db import ResultStore, RunMeta


@dataclass
class BackfillReport:
    """Outcome of one cache ingest."""

    scanned: int = 0
    inserted: int = 0
    duplicates: int = 0
    skipped: int = 0

    def summary(self) -> str:
        return ("backfill: %d cache entries scanned, %d inserted, "
                "%d duplicates, %d skipped (corrupt or stale)"
                % (self.scanned, self.inserted, self.duplicates,
                   self.skipped))


def backfill_from_cache(store: ResultStore, cache: ResultCache, *,
                        run_meta: Optional[RunMeta] = None
                        ) -> BackfillReport:
    """Ingest every valid entry of ``cache`` into ``store``.

    Corrupt, stale (cache-schema-mismatched) or misnamed entries are
    counted as skipped, never fatal: a backfill must survive whatever a
    long-lived cache directory has accumulated.  Digest conflicts with
    rows already in the store are still hard errors, exactly as for
    shard merges.
    """
    report = BackfillReport()
    meta = run_meta or store.run_meta
    try:
        for digest, path in sorted(cache.entries()):
            report.scanned += 1
            try:
                result = read_entry(path, digest)
            except CorruptEntry:
                result = None
            if result is None:
                report.skipped += 1
                continue
            if store.insert(result, source="backfill", run_meta=meta,
                            commit=False):
                report.inserted += 1
            else:
                report.duplicates += 1
    except BaseException:
        store.rollback()
        raise
    store.commit()
    return report

