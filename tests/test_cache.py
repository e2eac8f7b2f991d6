"""Unit tests for repro.cache: canonicalization and fingerprints.

The dedup's correctness contract is "equal fingerprints denote equal
simulations", which rests on two independently testable legs:
canonicalization maps equivalent inputs to byte-identical encodings, and
the derived seed is a pure ``PYTHONHASHSEED``-free function of the inputs.
"""

import dataclasses
import enum
import hashlib
import zlib
from dataclasses import dataclass

import pytest

from repro.cache import (
    Fingerprint,
    behavior_fingerprint,
    canonical_json,
    canonicalize,
    mix_seed,
)
from repro.cache import fingerprint as fingerprint_mod
from repro.nat import behavior as B


class Color(enum.Enum):
    RED = 1
    BLUE = 2


@dataclass
class Point:
    x: int
    y: float


# -- canonicalization ---------------------------------------------------------


def test_canonicalize_enums_render_as_type_dot_name():
    assert canonicalize(Color.RED) == "Color.RED"
    assert canonicalize([Color.RED, Color.BLUE]) == ["Color.RED", "Color.BLUE"]


def test_canonicalize_numbers_normalise_but_bools_do_not():
    # 120 and 120.0 are the same timeout; True and 1 are not the same axis.
    assert canonicalize(120) == canonicalize(120.0) == "120.0"
    assert canonicalize(True) is True
    assert canonicalize(False) is False
    assert canonicalize(1) != canonicalize(True)
    assert canonicalize(None) is None


def test_canonicalize_dataclasses_tag_their_type():
    encoded = canonicalize(Point(1, 2.5))
    assert encoded == {"__type__": "Point", "x": "1.0", "y": "2.5"}


def test_canonicalize_tuples_and_lists_agree():
    assert canonicalize((1, 2)) == canonicalize([1, 2])


def test_canonicalize_rejects_unknown_types():
    with pytest.raises(TypeError, match="cannot canonicalize"):
        canonicalize(object())


def test_canonical_json_is_sorted_and_compact():
    text = canonical_json({"b": 1, "a": Color.RED})
    assert text == '{"a":"Color.RED","b":"1.0"}'


# -- derived seeds ------------------------------------------------------------


def test_mix_seed_value_is_pinned():
    """The crc32 recipe, pinned by value: an earlier ``hash()``-based
    derivation changed with ``PYTHONHASHSEED``, so "same seed => same
    fleet" broke silently across interpreters."""
    assert mix_seed(0, "Linksys:0") == 461721
    assert mix_seed(42, "(other):130") == (
        42 * 1_000_003 + zlib.crc32(b"(other):130") % 1_000_000
    )


def test_mix_seed_varies_with_both_inputs():
    base = mix_seed(1, "payload")
    assert mix_seed(2, "payload") != base
    assert mix_seed(1, "payload2") != base


# -- fingerprints -------------------------------------------------------------


def test_fingerprint_is_deterministic_and_order_insensitive():
    one = behavior_fingerprint(seed=7, behavior=B.WELL_BEHAVED, extra=1)
    two = behavior_fingerprint(seed=7, extra=1, behavior=B.WELL_BEHAVED)
    assert one == two
    assert len(one.core) == 64


def test_fingerprint_seed_derives_from_payload():
    fp = behavior_fingerprint(seed=9, behavior=B.SYMMETRIC)
    other = behavior_fingerprint(seed=9, behavior=B.WELL_BEHAVED)
    assert fp.seed != other.seed
    assert fp.seed == mix_seed(9, canonical_json({"behavior": B.SYMMETRIC}))


# -- the payload memo ---------------------------------------------------------


def _uncached_fingerprint(seed, **parts):
    """What ``behavior_fingerprint`` computed before it memoised payloads."""
    payload = canonical_json(parts)
    core = hashlib.sha256(f"{seed}:{payload}".encode()).hexdigest()
    return Fingerprint(core, mix_seed(seed, payload))


def test_payload_memo_keeps_apart_what_canonicalize_keeps_apart():
    """Frozen dataclasses compare ``True == 1 == 1.0``; ``canonicalize``
    encodes the bool apart from the numbers.  Whatever was fingerprinted
    first, each spelling must get its own (uncached-identical) result."""
    from repro.natcheck.client import NatCheckConfig

    spellings = [NatCheckConfig(run_tcp=value) for value in (True, 1, 1.0)]
    assert spellings[0] == spellings[1] == spellings[2]
    for order in (spellings, spellings[::-1]):
        fingerprint_mod._payload_memo.clear()
        for _ in range(2):  # miss, then hit
            for config in order:
                assert behavior_fingerprint(seed=3, config=config) == (
                    _uncached_fingerprint(3, config=config)
                )
    as_bool, as_int, as_float = (behavior_fingerprint(seed=3, config=c) for c in spellings)
    assert as_bool != as_int
    assert as_int == as_float  # 1 and 1.0 canonicalize identically


def test_payload_memo_hit_still_folds_in_seed():
    fingerprint_mod._payload_memo.clear()
    first = behavior_fingerprint(seed=5, behavior=B.WELL_BEHAVED)
    assert len(fingerprint_mod._payload_memo) == 1
    assert behavior_fingerprint(seed=5, behavior=B.WELL_BEHAVED) == first
    other_seed = behavior_fingerprint(seed=6, behavior=B.WELL_BEHAVED)
    assert (other_seed.core, other_seed.seed) != (first.core, first.seed)
    assert len(fingerprint_mod._payload_memo) == 1  # every call above was a hit


def test_payload_memo_is_bounded():
    fingerprint_mod._payload_memo.clear()
    for n in range(fingerprint_mod._PAYLOAD_MEMO_MAX * 2 + 3):
        behavior_fingerprint(seed=0, n=n)
        assert len(fingerprint_mod._payload_memo) <= fingerprint_mod._PAYLOAD_MEMO_MAX
    assert behavior_fingerprint(seed=0, n=0) == _uncached_fingerprint(0, n=0)


def test_fleet_fingerprint_parts_hide_nothing_from_their_repr():
    """The memo is keyed on ``repr(parts)``: sound as long as every field
    ``canonicalize`` reads is printed by the dataclass-generated repr."""
    from repro.natcheck.client import NatCheckConfig
    from repro.netsim.link import LinkProfile

    for cls in (B.NatBehavior, NatCheckConfig, LinkProfile):
        obj = cls()
        shown = ", ".join(
            f"{field.name}={getattr(obj, field.name)!r}" for field in dataclasses.fields(cls)
        )
        assert repr(obj) == f"{cls.__name__}({shown})"

