"""Behavioral fingerprints: content-addressed keys for simulation results.

A fingerprint captures **everything that can influence a simulation
outcome** so that equal fingerprints provably denote equal results:

* the *payload* — a canonical JSON encoding of the inputs (the device's
  :class:`~repro.nat.behavior.NatBehavior` axes, its NAT Check config, the
  link profiles the harness wires up);
* the *derived seed* — mixed from the run seed and the payload with the
  same crc32 recipe as :func:`repro.natcheck.fleet.device_seed`, so two
  behaviourally identical devices replay the **identical** simulation (this
  is what makes in-run dedup sound even for behaviours that consume
  randomness, e.g. random port allocation);
* the *protocol-suite version* — a hash over the behaviour-relevant
  ``repro`` module sources, so any code change to the NAT model, the NAT
  Check protocol, the simulator, or the transport stacks self-invalidates
  every previously cached result.

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
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple

# ``json`` and ``pathlib`` are imported where they are used: only a payload-memo
# miss and source hashing need them, and ``pathlib`` drags in ``fnmatch``,
# ``urllib.parse`` and ``ipaddress``.
if TYPE_CHECKING:
    from pathlib import Path

#: Packages (under ``src/repro``) whose sources feed the suite version hash.
#: These are the layers a NAT Check simulation's outcome can depend on; the
#: observability layer (passive instrumentation) and the analysis/report
#: drivers (consumers, not inputs) are deliberately excluded so a metrics or
#: report tweak does not throw away every cached result.
SUITE_PACKAGES: Tuple[str, ...] = (
    "cache",
    "nat",
    "natcheck",
    "netsim",
    "transport",
    "util",
)

#: Test hook: appended to the version-hash input so the invalidation path can
#: be exercised without editing source files on disk.
VERSION_SALT = ""

_suite_memo: Dict[str, str] = {}

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

    The same recipe as :func:`repro.natcheck.fleet.device_seed` (which calls
    this): ``zlib.crc32`` rather than ``hash()`` so the derivation never
    varies with ``PYTHONHASHSEED`` across interpreters or pool workers.
    """
    return seed * 1_000_003 + zlib.crc32(text.encode()) % 1_000_000


@dataclasses.dataclass(frozen=True)
class Fingerprint:
    """A content-addressed key for one simulation.

    Attributes:
        core: sha256 over the run seed and the canonical input payload —
            the on-disk filename, stable across code changes so a stale
            record is *found* (and counted as an invalidation) rather than
            silently orphaned.
        suite: the protocol-suite version hash in effect when computed.
        seed: the derived simulation seed (``mix_seed(run_seed, payload)``).
        full: sha256 over ``core`` + ``suite`` — the identity a cached
            record must match exactly to be served.
    """

    core: str
    suite: str
    seed: int
    full: str


def behavior_fingerprint(seed: int = 0, suite: str | None = None, **parts: object) -> Fingerprint:
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
    suite_hash = suite if suite is not None else suite_version()
    full = hashlib.sha256(f"{core}:{suite_hash}".encode()).hexdigest()
    return Fingerprint(core=core, suite=suite_hash, seed=mix_seed(int(seed), payload), full=full)


# -- suite version hashing ----------------------------------------------------


def _source_root() -> Path:
    """The ``repro`` package directory, which the suite packages live under."""
    from pathlib import Path

    import repro

    return Path(repro.__file__).resolve().parent


def suite_sources(packages: Sequence[str] = SUITE_PACKAGES) -> List[Path]:
    """The source files feeding the version hash (sorted, stable order)."""
    base = _source_root()
    files: List[Path] = []
    for package in packages:
        files.extend(sorted((base / package).rglob("*.py")))
    return files


def hash_sources(files: Iterable[Path], base: Path, salt: str = "") -> str:
    """sha256 over relative names + contents of *files* (rooted at *base*)."""
    digest = hashlib.sha256()
    digest.update(salt.encode())
    for path in files:
        digest.update(str(path.relative_to(base)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def suite_version() -> str:
    """Version hash of the behaviour-relevant ``repro`` sources (memoised).

    Any edit to a file under :data:`SUITE_PACKAGES` changes this value,
    which changes every :attr:`Fingerprint.full`, which makes every
    previously cached record an invalidation on its next lookup.
    """
    salt = VERSION_SALT
    cached = _suite_memo.get(salt)
    if cached is None:
        cached = _suite_memo[salt] = hash_sources(suite_sources(), _source_root(), salt)
    return cached
