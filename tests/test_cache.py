"""Unit tests for repro.cache: canonicalization, fingerprints, the store.

The cache's correctness contract is "equal fingerprints denote equal
simulations", which rests on three independently testable legs:
canonicalization maps equivalent inputs to byte-identical encodings, the
derived seed is a pure ``PYTHONHASHSEED``-free function of the inputs, and
the store only ever serves records whose full identity (payload + suite
version hash) matches exactly.
"""

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.cache import (
    Fingerprint,
    ResultCache,
    behavior_fingerprint,
    canonical_json,
    canonicalize,
    default_cache_dir,
    hash_sources,
    mix_seed,
    suite_sources,
    suite_version,
)
from repro.cache import fingerprint as fingerprint_mod
from repro.cache.store import RECORD_FORMAT
from repro.nat import behavior as B
from repro.natcheck.fleet import device_seed


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


def test_mix_seed_matches_device_seed_recipe():
    # device_seed is mix_seed over "vendor:index" — one recipe, two callers.
    assert device_seed(42, "Linksys", 3) == mix_seed(42, "Linksys:3")


def test_mix_seed_varies_with_both_inputs():
    base = mix_seed(1, "payload")
    assert mix_seed(2, "payload") != base
    assert mix_seed(1, "payload2") != base


# -- fingerprints -------------------------------------------------------------


def test_fingerprint_is_deterministic_and_order_insensitive():
    one = behavior_fingerprint(seed=7, behavior=B.WELL_BEHAVED, extra=1)
    two = behavior_fingerprint(seed=7, extra=1, behavior=B.WELL_BEHAVED)
    assert one == two
    assert len(one.core) == 64 and len(one.full) == 64


def test_fingerprint_full_folds_in_suite_version():
    fp_a = behavior_fingerprint(seed=0, behavior=B.WELL_BEHAVED, suite="aaa")
    fp_b = behavior_fingerprint(seed=0, behavior=B.WELL_BEHAVED, suite="bbb")
    assert fp_a.core == fp_b.core  # same inputs → same file name
    assert fp_a.full != fp_b.full  # different code → different identity
    assert fp_a.seed == fp_b.seed  # derived seed is code-independent


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
    full = hashlib.sha256(f"{core}:{suite_version()}".encode()).hexdigest()
    return Fingerprint(core, suite_version(), mix_seed(seed, payload), full)


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


def test_payload_memo_hit_still_folds_in_seed_suite_and_salt(monkeypatch):
    fingerprint_mod._payload_memo.clear()
    first = behavior_fingerprint(seed=5, behavior=B.WELL_BEHAVED)
    assert len(fingerprint_mod._payload_memo) == 1
    assert behavior_fingerprint(seed=5, behavior=B.WELL_BEHAVED) == first
    other_seed = behavior_fingerprint(seed=6, behavior=B.WELL_BEHAVED)
    assert (other_seed.core, other_seed.seed) != (first.core, first.seed)
    pinned = behavior_fingerprint(seed=5, behavior=B.WELL_BEHAVED, suite="abc")
    assert pinned.core == first.core and pinned.full != first.full
    monkeypatch.setattr(fingerprint_mod, "VERSION_SALT", "simulated code change")
    salted = behavior_fingerprint(seed=5, behavior=B.WELL_BEHAVED)
    assert salted.core == first.core and salted.seed == first.seed
    assert salted.suite != first.suite and salted.full != first.full
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


# -- suite version hashing ----------------------------------------------------


def test_suite_sources_cover_the_behaviour_layers():
    names = {str(p) for p in suite_sources()}
    for fragment in (
        "nat/behavior.py",
        "natcheck/client.py",
        "netsim/network.py",
        "transport/tcp.py",
        "cache/fingerprint.py",
    ):
        assert any(name.endswith(fragment) for name in names), fragment
    # Consumers of results must NOT invalidate them.
    assert not any("obs/" in name or "analysis/" in name for name in names)


def test_hash_sources_is_content_and_name_sensitive(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text("y = 2\n")
    files = sorted(tmp_path.glob("*.py"))
    baseline = hash_sources(files, tmp_path)
    assert hash_sources(files, tmp_path) == baseline
    (tmp_path / "b.py").write_text("y = 3\n")
    assert hash_sources(files, tmp_path) != baseline
    (tmp_path / "b.py").write_text("y = 2\n")
    assert hash_sources(files, tmp_path) == baseline  # restored
    assert hash_sources(files, tmp_path, salt="s") != baseline


def test_suite_version_is_memoised():
    assert suite_version() == suite_version()


# -- the on-disk store --------------------------------------------------------


def _fp(core="c" * 64, suite="s" * 8, seed=123):
    import hashlib

    full = hashlib.sha256(f"{core}:{suite}".encode()).hexdigest()
    return Fingerprint(core=core, suite=suite, seed=seed, full=full)


def test_store_roundtrip_and_counters(tmp_path):
    cache = ResultCache(tmp_path)
    fp = _fp()
    assert cache.get(fp) is None  # cold
    cache.put(fp, {"answer": 42}, meta={"vendor": "Linksys"})
    record = cache.get(fp)
    assert record["report"] == {"answer": 42}
    assert record["meta"] == {"vendor": "Linksys"}
    assert record["seed"] == 123
    assert cache.stats() == {"hits": 1, "misses": 1, "invalidations": 0, "stores": 1}


def test_store_record_is_valid_json_file(tmp_path):
    cache = ResultCache(tmp_path)
    fp = _fp()
    cache.put(fp, {"k": "v"})
    path = cache.path_for(fp)
    assert path.name == f"{fp.core}.json"
    on_disk = json.loads(path.read_text())
    assert on_disk["format"] == RECORD_FORMAT
    assert on_disk["fingerprint"] == fp.full
    # No temp files left behind.
    assert list(tmp_path.glob("*.tmp")) == []


def test_store_invalidates_on_suite_change(tmp_path):
    cache = ResultCache(tmp_path)
    old = _fp(suite="old-code")
    cache.put(old, {"k": "v"})
    new = _fp(suite="new-code")  # same core → same file, different identity
    assert cache.path_for(old) == cache.path_for(new)
    assert cache.get(new) is None
    assert cache.invalidations == 1 and cache.misses == 1
    # Re-simulating overwrites the stale record in place.
    cache.put(new, {"k": "v2"})
    assert cache.get(new)["report"] == {"k": "v2"}


def test_store_treats_corrupt_records_as_invalidations(tmp_path):
    cache = ResultCache(tmp_path)
    fp = _fp()
    cache.root.mkdir(parents=True, exist_ok=True)
    cache.path_for(fp).write_text("{not json")
    assert cache.get(fp) is None
    cache.path_for(fp).write_text('{"format": 999}')
    assert cache.get(fp) is None
    assert cache.invalidations == 2


def test_store_survives_unwritable_directory(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    cache = ResultCache(blocker / "sub")  # mkdir will fail
    cache.put(_fp(), {"k": "v"})  # must not raise
    assert cache.stores == 0
    cache.put(_fp(), {"k": "v"})  # still silent once broken
    assert cache.get(_fp()) is None  # reads degrade to misses


def test_store_clear_removes_records(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(_fp(core="a" * 64), {"k": 1})
    cache.put(_fp(core="b" * 64), {"k": 2})
    assert cache.clear() == 2
    assert cache.get(_fp(core="a" * 64)) is None


def test_default_cache_dir_honours_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
    assert default_cache_dir() == tmp_path / "custom"
    assert ResultCache().root == tmp_path / "custom"
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    assert default_cache_dir() == Path("~/.cache/repro").expanduser()
