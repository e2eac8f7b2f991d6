"""repro.cache — content-addressed simulation result caching.

The performance layer that makes repeated work free (the regime large-scale
NAT traversal measurement studies operate in): a deterministic **behavioral
fingerprint** keys every simulation by everything that can influence its
outcome, an in-run dedup collapses behaviourally identical devices to one
simulation each, and an on-disk :class:`ResultCache` persists results across
runs, self-invalidating whenever the protocol-suite sources change.

See ``docs/performance.md`` ("Caching & dedup") for the fingerprint recipe
and the invalidation rules; :mod:`repro.natcheck.fleet` is the main client.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "CACHE_DIR_ENV": "store",
    "Fingerprint": "fingerprint",
    "RECORD_FORMAT": "store",
    "ResultCache": "store",
    "SUITE_PACKAGES": "fingerprint",
    "behavior_fingerprint": "fingerprint",
    "canonical_json": "fingerprint",
    "canonicalize": "fingerprint",
    "default_cache_dir": "store",
    "hash_sources": "fingerprint",
    "mix_seed": "fingerprint",
    "suite_sources": "fingerprint",
    "suite_version": "fingerprint",
})
