"""Unit tests for the util package: seeded RNG and error hierarchy."""

import copy
import hashlib
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from repro.util.errors import (
    AddressError,
    BindError,
    ConnectionError_,
    ProtocolError,
    ReproError,
    RoutingError,
    TimeoutError_,
)
from repro.util.rng import SeededRng


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a, b = SeededRng(42), SeededRng(42)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        assert SeededRng(1).random() != SeededRng(2).random()

    def test_children_are_independent_namespaces(self):
        parent = SeededRng(7)
        x, y = parent.child("x"), parent.child("y")
        assert x.random() != y.random()
        # Re-deriving gives the same stream.
        assert parent.child("x").random() == SeededRng(7).child("x").random()

    def test_child_does_not_perturb_parent(self):
        a, b = SeededRng(5), SeededRng(5)
        a.child("anything")
        assert a.random() == b.random()

    def test_randint_bounds(self):
        rng = SeededRng(1)
        values = [rng.randint(3, 5) for _ in range(100)]
        assert set(values) <= {3, 4, 5}
        assert len(set(values)) == 3

    def test_uniform_bounds(self):
        rng = SeededRng(1)
        assert all(1.0 <= rng.uniform(1.0, 2.0) <= 2.0 for _ in range(50))

    def test_chance_extremes(self):
        rng = SeededRng(1)
        assert all(rng.chance(1.0) for _ in range(10))
        assert not any(rng.chance(0.0) for _ in range(10))

    def test_bytes_length(self):
        rng = SeededRng(1)
        assert len(rng.bytes(16)) == 16
        assert rng.bytes(0) == b""

    def test_nonces_in_range(self):
        rng = SeededRng(1)
        assert 0 <= rng.nonce32() < (1 << 32)
        assert 0 <= rng.nonce64() < (1 << 64)

    def test_choice_and_shuffle_deterministic(self):
        items = list(range(20))
        a, b = SeededRng(3), SeededRng(3)
        la, lb = list(items), list(items)
        a.shuffle(la)
        b.shuffle(lb)
        assert la == lb
        assert a.choice(items) == b.choice(items)

    def test_sample(self):
        rng = SeededRng(1)
        s = rng.sample(range(100), 10)
        assert len(s) == len(set(s)) == 10


def _eager(seed, name):
    """The generator ``SeededRng(seed, name)`` seeded in its constructor
    before seeding moved to the first draw."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _shuffled(generator):
    items = list(range(12))
    generator.shuffle(items)
    return items


#: Each public draw method beside the same draw on the reference generator.
_DRAWS = {
    "shuffle": (_shuffled, _shuffled),
    "random": (lambda r: r.random(), lambda g: g.random()),
    "uniform": (lambda r: r.uniform(-2.5, 7.0), lambda g: g.uniform(-2.5, 7.0)),
    "randint": (lambda r: r.randint(1024, 65535), lambda g: g.randint(1024, 65535)),
    "choice": (lambda r: r.choice("abcdefg"), lambda g: g.choice("abcdefg")),
    "sample": (lambda r: r.sample(range(50), 5), lambda g: g.sample(range(50), 5)),
    "bytes": (lambda r: r.bytes(6), lambda g: g.getrandbits(48).to_bytes(6, "big")),
    "nonce32": (lambda r: r.nonce32(), lambda g: g.getrandbits(32)),
    "nonce64": (lambda r: r.nonce64(), lambda g: g.getrandbits(64)),
    "chance": (lambda r: r.chance(0.3), lambda g: g.random() < 0.3),
}


_names = st.text(alphabet="abcxyz/-0159", min_size=1, max_size=8)


class TestLazySeeding:
    """Seeding on the first draw must be unobservable."""

    @given(
        seed=st.integers(-(2**40), 2**70),
        name=_names,
        path=st.lists(_names, max_size=3),
        method=st.sampled_from(sorted(_DRAWS)),
    )
    def test_streams_equal_the_eagerly_seeded_reference(self, seed, name, path, method):
        rng = SeededRng(seed, name)
        for part in path:
            rng = rng.child(part)
        assert rng.name == "/".join([name, *path])
        draw, reference_draw = _DRAWS[method]
        reference = _eager(seed, rng.name)
        assert [draw(rng) for _ in range(16)] == [reference_draw(reference) for _ in range(16)]

    @given(seed=st.integers(0, 2**32), touch=st.sampled_from(["never", "create", "draw"]))
    def test_siblings_do_not_perturb_a_stream(self, seed, touch):
        parent = SeededRng(seed)
        stream = parent.child("link/lan")
        first = stream.random()
        if touch != "never":
            sibling = parent.child("link/wan")
            if touch == "draw":
                sibling.nonce64()
                parent.random()
        reference = _eager(seed, "root/link/lan")
        assert [first, stream.random()] == [reference.random(), reference.random()]

    def test_undrawn_generators_copy_and_pickle(self):
        fresh = SeededRng(9, "stack/client")
        for clone in (copy.deepcopy(fresh), pickle.loads(pickle.dumps(fresh))):
            assert (clone.seed, clone.name) == (9, "stack/client")
            assert clone.nonce32() == _eager(9, "stack/client").getrandbits(32)
        with pytest.raises(AttributeError):
            fresh.no_such_attribute


class TestErrors:
    def test_all_derive_from_repro_error(self):
        for exc in (
            AddressError("x"),
            BindError("x"),
            ConnectionError_("reset"),
            ProtocolError("x"),
            RoutingError("x"),
            TimeoutError_("x"),
        ):
            assert isinstance(exc, ReproError)

    def test_connection_error_reason(self):
        e = ConnectionError_("reset", "connection reset by peer")
        assert e.reason == "reset"
        assert "reset by peer" in str(e)

    def test_connection_error_defaults_message_to_reason(self):
        assert str(ConnectionError_("unreachable")) == "unreachable"

    def test_builtin_compatibility(self):
        assert isinstance(AddressError("x"), ValueError)
        assert isinstance(BindError("x"), OSError)
        assert isinstance(TimeoutError_("x"), OSError)
