"""Behavioral fingerprints: content-addressed keys for simulation results.

A fingerprint captures **everything that can influence a simulation
outcome** so that equal fingerprints provably denote equal results:

* the *payload* — a canonical JSON encoding of the inputs (the device's
  :class:`~repro.nat.behavior.NatBehavior` axes, its NAT Check config, the
  link profiles the harness wires up);
* the *derived seed* — mixed from the run seed and the payload by
  :func:`mix_seed` (crc32, not ``hash()``), so two behaviourally identical
  devices replay the **identical** simulation (this is what makes in-run
  dedup sound even for behaviours that consume randomness, e.g. random port
  allocation).

A fingerprint never outlives the process that computed it: it keys an
in-run dedup, never a stored result, so there is no code version to fold in.

Canonicalization guarantees byte-identical encodings for equivalent
inputs: enums render as ``Type.NAME``, numbers normalise through ``float``
(``120`` and ``120.0`` encode identically), dataclasses encode field by
field with an embedded type tag, and JSON is emitted with sorted keys and
fixed separators.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import zlib
from typing import Dict

#: ``repr(parts)`` -> canonical payload, for :func:`behavior_fingerprint`.  A
#: fleet fingerprints every device but has only a handful of distinct
#: behaviours.  Keyed on the repr, not on the parts: dataclasses compare
#: ``True == 1 == 1.0`` while :func:`canonicalize` encodes ``True`` apart from
#: the numbers, and the repr keeps them apart too (at worst ``1`` and ``1.0``
#: fill two entries with the same payload).  Emptied when full.
_payload_memo: Dict[str, str] = {}
_PAYLOAD_MEMO_MAX = 256


def canonicalize(obj: object) -> object:
    """Normalise *obj* into JSON-safe primitives with stable encodings.

    Equivalent values canonicalize to identical structures: ``Enum`` members
    become ``"Type.NAME"`` strings, numbers (but never bools) normalise
    through ``float`` and render via ``repr``, and dataclasses encode their
    declared fields plus a ``__type__`` tag.
    """
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, float)):
        return repr(float(obj))
    if isinstance(obj, str):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        encoded: Dict[str, object] = {"__type__": type(obj).__name__}
        for field in dataclasses.fields(obj):
            encoded[field.name] = canonicalize(getattr(obj, field.name))
        return encoded
    if isinstance(obj, dict):
        return {str(key): canonicalize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(value) for value in obj]
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for fingerprinting")


def canonical_json(obj: object) -> str:
    """The canonical wire form: sorted keys, fixed separators, no whitespace."""
    import json

    return json.dumps(canonicalize(obj), sort_keys=True, separators=(",", ":"))


def mix_seed(seed: int, text: str) -> int:
    """Mix *seed* with *text* into a derived seed (crc32-based, hash-stable).

    The one seed-derivation recipe: fingerprints and the robustness report
    both call it.  ``zlib.crc32`` rather than ``hash()`` so the derivation
    never varies with ``PYTHONHASHSEED`` across interpreters;
    :func:`repro.core.registry.shard_of` places peers with the same crc32.
    """
    return seed * 1_000_003 + zlib.crc32(text.encode()) % 1_000_000


@dataclasses.dataclass(frozen=True)
class Fingerprint:
    """A content-addressed key for one simulation.

    Attributes:
        core: sha256 over the run seed and the canonical input payload —
            the dedup key: equal ``core`` means the same simulation.
        seed: the derived simulation seed (``mix_seed(run_seed, payload)``).
    """

    core: str
    seed: int


def behavior_fingerprint(seed: int = 0, **parts: object) -> Fingerprint:
    """Fingerprint a simulation defined by keyword *parts* and a run *seed*.

    *parts* is whatever influences the outcome (behaviour, config, link
    profiles, ...); anything :func:`canonicalize` accepts.  The derived
    ``seed`` is a pure function of the run seed and the canonical payload,
    so equal parts + equal run seed always yield the same simulation.
    """
    key = repr(parts)
    payload = _payload_memo.get(key)
    if payload is None:
        if len(_payload_memo) >= _PAYLOAD_MEMO_MAX:
            _payload_memo.clear()
        payload = _payload_memo[key] = canonical_json(parts)
    core = hashlib.sha256(f"{int(seed)}:{payload}".encode()).hexdigest()
    return Fingerprint(core=core, seed=mix_seed(int(seed), payload))
