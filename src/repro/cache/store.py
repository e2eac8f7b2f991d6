"""The on-disk result cache: one JSON record per behavioral fingerprint.

Records live under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``), one
file per :attr:`Fingerprint.core`, written via temp-file + ``os.replace``
so concurrent writers — pool workers, parallel CI jobs, two benchmark runs
sharing a home directory — race benignly: both write byte-identical
content, and the rename is atomic on POSIX.

A record stores the :attr:`Fingerprint.full` identity (which folds in the
protocol-suite version hash).  A lookup whose stored identity does not
match the expected fingerprint is an **invalidation**: the code that
produced the record has changed, so the record is stale and the caller
re-simulates (the next ``put`` overwrites the stale file in place, keeping
the cache directory from accumulating dead entries).

IO failures never propagate: an unreadable record is a miss, an unwritable
cache directory flips the store into a disabled state — caching is an
optimisation, not a correctness dependency.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, Optional

from repro.cache.fingerprint import Fingerprint

# ``pathlib`` and ``json`` are imported by the methods that use them: a process
# that imports the fleet but never opens a store (``cache=False``, every packet
# workload) should not pay for either.
if TYPE_CHECKING:
    from pathlib import Path

#: Environment override for the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: On-disk record schema version; bumped on incompatible layout changes.
RECORD_FORMAT = 1


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    from pathlib import Path

    raw = os.environ.get(CACHE_DIR_ENV, "").strip()
    if raw:
        return Path(raw).expanduser()
    return Path("~/.cache/repro").expanduser()


class ResultCache:
    """A persistent fingerprint-addressed store with hit/miss accounting.

    Counters (monotonic over the instance's lifetime):

    * ``hits`` — a record matched its fingerprint exactly and was served;
    * ``misses`` — no usable record (absent, corrupt, or invalidated);
    * ``invalidations`` — a record *existed* but was stale (code change,
      corrupt JSON, or format bump); always counted alongside a miss;
    * ``stores`` — records written.
    """

    def __init__(self, root: Optional[object] = None) -> None:
        from pathlib import Path

        self.root = Path(root).expanduser() if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.stores = 0
        self._broken = False

    def path_for(self, fingerprint: Fingerprint) -> Path:
        """The record file for *fingerprint* (named by its ``core`` hash)."""
        return self.root / f"{fingerprint.core}.json"

    def get(self, fingerprint: Fingerprint) -> Optional[Dict[str, object]]:
        """The stored record, or None (counting a miss and, when a stale or
        unreadable record was found, an invalidation)."""
        try:
            raw = self.path_for(fingerprint).read_text()
        except OSError:
            self.misses += 1
            return None
        import json

        try:
            record = json.loads(raw)
        except ValueError:
            record = None
        if (
            not isinstance(record, dict)
            or record.get("format") != RECORD_FORMAT
            or record.get("fingerprint") != fingerprint.full
        ):
            self.invalidations += 1
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(
        self,
        fingerprint: Fingerprint,
        report: Dict[str, object],
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        """Atomically persist *report* under *fingerprint*.

        Silently becomes a no-op (for the store's remaining lifetime) if the
        cache directory is unwritable — a read-only home must never break a
        fleet run.
        """
        if self._broken:
            return
        import json

        record: Dict[str, object] = {
            "format": RECORD_FORMAT,
            "fingerprint": fingerprint.full,
            "core": fingerprint.core,
            "suite_version": fingerprint.suite,
            "seed": fingerprint.seed,
            "report": report,
        }
        if meta:
            record["meta"] = meta
        path = self.path_for(fingerprint)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(record, sort_keys=True) + "\n")
            os.replace(tmp, path)
            self.stores += 1
        except OSError:
            self._broken = True
            try:
                tmp.unlink()
            except OSError:
                pass

    def clear(self) -> int:
        """Delete every record; returns the number removed."""
        removed = 0
        try:
            entries = list(self.root.glob("*.json"))
        except OSError:
            return 0
        for path in entries:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "stores": self.stores,
        }

    def __repr__(self) -> str:
        return (
            f"ResultCache(root={str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, invalidations={self.invalidations}, "
            f"stores={self.stores})"
        )
