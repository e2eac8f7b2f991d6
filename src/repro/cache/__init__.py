"""repro.cache — behavioral fingerprints for in-run simulation dedup.

The performance layer that makes repeated work free (the regime large-scale
NAT traversal measurement studies operate in): a deterministic **behavioral
fingerprint** keys every simulation by everything that can influence its
outcome, and the fleet's in-run dedup collapses behaviourally identical
devices to one simulation each.  Nothing is stored across runs, so every
result reflects the code that produced it.

See ``docs/performance.md`` ("Fleet dedup") for the fingerprint recipe;
:mod:`repro.natcheck.fleet` is the main client.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "Fingerprint": "fingerprint",
    "behavior_fingerprint": "fingerprint",
    "canonical_json": "fingerprint",
    "canonicalize": "fingerprint",
    "mix_seed": "fingerprint",
})
