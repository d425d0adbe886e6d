"""Content-addressed on-disk result cache.

Each sweep point's summary is stored at ``<dir>/<digest[:2]>/<digest>.json``
where the digest hashes everything the simulation is a pure function of
(workload spec, defense descriptor, resolved config, scale, cycle cap —
see :meth:`repro.exp.spec.SweepPoint.cache_token`).  Re-running a figure
therefore only simulates points whose inputs changed; anything else is a
constant-time file read.

The cache directory resolves, in order: an explicit argument, the
``REPRO_CACHE_DIR`` environment variable, then
``~/.cache/repro-ghostminion``.  Entries carry the schema version from
``repro.exp.spec.CACHE_SCHEMA_VERSION``; note the digest covers *inputs*
only — if you change simulator code in a way that alters results, bump
that version (or wipe the directory) to invalidate stale entries.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from typing import Dict, Iterator, Optional, Tuple

from repro.exp.resultset import PointResult
from repro.exp.spec import CACHE_SCHEMA_VERSION

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = os.path.join("~", ".cache", "repro-ghostminion")


def default_cache_dir() -> str:
    """Resolve the cache directory from the environment (lazily)."""
    return os.path.expanduser(
        os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR)


class CorruptEntry(ValueError):
    """A cache entry that can never be served; the message says why."""


def read_entry(path: str, digest: str) -> Optional[PointResult]:
    """Read the entry at ``path``, expected to hold ``digest``.

    Returns ``None`` for a missing or unreadable file and for a stale
    entry (another cache schema version): both are plain misses.
    Raises :class:`CorruptEntry` for invalid JSON, a payload that is
    not a cache entry, missing or mistyped result fields, or a recorded
    digest that differs from the slot's (a moved or hand-edited file;
    trusting either identity would serve the wrong point).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError:
        return None
    except ValueError:
        raise CorruptEntry("invalid JSON") from None
    if not isinstance(payload, dict):
        raise CorruptEntry("not a cache entry")
    if payload.get("cache_version") != CACHE_SCHEMA_VERSION:
        return None
    entry = payload.get("result")
    if not isinstance(entry, dict) or \
            not isinstance(entry.get("stats"), dict):
        raise CorruptEntry("missing/invalid result fields")
    try:
        result = PointResult.from_json_dict(entry, cached=True)
    except KeyError:
        raise CorruptEntry("missing/invalid result fields") from None
    if result.digest != digest:
        raise CorruptEntry("recorded digest %r does not match its slot"
                           % (result.digest,))
    return result


class ResultCache:
    """Filesystem-backed map from point digest to :class:`PointResult`."""

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = (os.path.expanduser(str(directory))
                          if directory is not None else default_cache_dir())
        self.hits = 0
        self.misses = 0

    def path_for(self, digest: str) -> str:
        return os.path.join(self.directory, digest[:2],
                            "%s.json" % digest)

    def lookup(self, digest: str) -> Optional[PointResult]:
        """Return the cached summary for ``digest`` or ``None``.

        Unreadable or version-mismatched entries count as misses (and
        will be overwritten by the next :meth:`store`).  Corrupt
        entries (see :func:`read_entry`) are additionally
        *quarantined*: renamed to ``<entry>.corrupt`` with a warning on
        stderr, so a damaged file can neither crash a sweep mid-run nor
        keep shadowing the digest it sits on.
        """
        path = self.path_for(digest)
        try:
            result = read_entry(path, digest)
        except CorruptEntry as exc:
            self._quarantine(path, str(exc))
            result = None
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _quarantine(self, path: str, reason: str) -> None:
        """Rename a damaged entry aside so it stops masking its slot."""
        aside = path + ".corrupt"
        try:
            os.replace(path, aside)
        except OSError:
            return
        print("warning: quarantined corrupt result-cache entry (%s): "
              "%s -> %s" % (reason, path, aside), file=sys.stderr)

    # -- maintenance (repro cache stats/prune, store backfill) ----------

    def _walk(self, suffix: str) -> Iterator[Tuple[str, str]]:
        """Yield ``(name-minus-suffix, path)`` under the two-hex shard
        directories for files ending in ``suffix``."""
        if not os.path.isdir(self.directory):
            return
        for shard in sorted(os.listdir(self.directory)):
            subdir = os.path.join(self.directory, shard)
            if len(shard) != 2 or not os.path.isdir(subdir):
                continue
            for name in sorted(os.listdir(subdir)):
                if name.endswith(suffix):
                    yield (name[:-len(suffix)],
                           os.path.join(subdir, name))

    def entries(self) -> Iterator[Tuple[str, str]]:
        """Yield ``(digest, path)`` for every entry on disk."""
        for digest, path in self._walk(".json"):
            if digest[:2] == os.path.basename(os.path.dirname(path)):
                yield digest, path

    def _quarantined(self) -> Iterator[str]:
        """Paths of entries :meth:`lookup` has renamed aside."""
        for _stem, path in self._walk(".json.corrupt"):
            yield path

    def stats(self) -> Dict[str, object]:
        """Entry count and total size of the cache directory (plus how
        many quarantined ``*.corrupt`` files are lying around)."""
        count = 0
        size = 0
        for _digest, path in self.entries():
            try:
                size += os.path.getsize(path)
            except OSError:
                continue
            count += 1
        return {"directory": self.directory, "entries": count,
                "bytes": size,
                "corrupt": sum(1 for _ in self._quarantined())}

    def prune(self, older_than: Optional[float] = None,
              now: Optional[float] = None) -> Dict[str, object]:
        """Delete entries (all, or only those whose mtime is more than
        ``older_than`` seconds before ``now``); returns removal counts.

        Quarantined ``*.corrupt`` files are pruned under the same age
        filter, and empty two-hex subdirectories are removed
        afterwards, so a full prune leaves the directory as ``store``
        would recreate it.
        """
        if now is None:
            # Compared with file mtimes only; never enters a payload.
            now = time.time()  # determinism: allow wall-clock: mtime cutoff
        removed = 0
        freed = 0
        victims = [path for _digest, path in self.entries()]
        victims.extend(self._quarantined())
        for path in victims:
            try:
                if older_than is not None:
                    age = now - os.path.getmtime(path)
                    if age < older_than:
                        continue
                size = os.path.getsize(path)
                os.unlink(path)
            except OSError:
                continue
            # count only after the unlink actually succeeded
            freed += size
            removed += 1
        if os.path.isdir(self.directory):
            for shard in os.listdir(self.directory):
                subdir = os.path.join(self.directory, shard)
                if len(shard) == 2 and os.path.isdir(subdir):
                    try:
                        os.rmdir(subdir)
                    except OSError:
                        pass  # not empty
        return {"directory": self.directory, "removed": removed,
                "bytes": freed}

    def store(self, result: PointResult) -> None:
        """Atomically persist one summary (tmp file + rename)."""
        path = self.path_for(result.digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "cache_version": CACHE_SCHEMA_VERSION,
            "result": result.to_json_dict(),
        }
        fd, tmp_path = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(payload, sort_keys=True))
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise


def resolve_cache(cache):
    """Normalise the ``cache`` argument accepted across the API.

    ``None``/``False`` -> disabled; ``True`` -> default directory; a
    string/path -> that directory; a :class:`ResultCache` — or anything
    else answering the ``lookup(digest)``/``store(result)`` protocol,
    such as a :class:`repro.store.ResultStore` or
    :class:`repro.store.StoreCache` (write-through recording into the
    sqlite result store) — passes through.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if callable(getattr(cache, "lookup", None)) and callable(
            getattr(cache, "store", None)):
        return cache
    return ResultCache(cache)
