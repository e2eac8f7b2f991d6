"""Deterministic random number generation.

All stochastic behaviour in the simulator (link loss, jitter, random port
allocation, nonce generation) flows through a :class:`SeededRng` owned by the
simulation, so a run is exactly reproducible from its seed.  Child generators
are derived by name, so adding a new consumer never perturbs the streams that
existing consumers observe.
"""

from __future__ import annotations

import hashlib
import random


class SeededRng:
    """A named, forkable wrapper around :class:`random.Random`.

    Args:
        seed: any integer; identical seeds yield identical streams.
        name: namespace label mixed into the seed so sibling generators
            derived from the same parent are independent.
    """

    def __init__(self, seed: int = 0, name: str = "root") -> None:
        self.seed = seed
        self.name = name

    def __getattr__(self, attr: str):
        # Reached only while ``_random`` is unset.  A topology names a child
        # generator for every link, NAT and stack but few of them ever draw,
        # so hashing the name and seeding the Mersenne Twister wait for the
        # first draw; the stream is a function of (seed, name) alone.
        if attr != "_random":
            raise AttributeError(attr)
        digest = hashlib.sha256(f"{self.seed}:{self.name}".encode()).digest()
        self._random = generator = random.Random(int.from_bytes(digest[:8], "big"))
        return generator

    def child(self, name: str) -> "SeededRng":
        """Derive an independent generator namespaced under *name*."""
        return SeededRng(self.seed, f"{self.name}/{name}")

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], inclusive."""
        return self._random.randint(low, high)

    def choice(self, seq):
        """Uniformly pick one element of a non-empty sequence."""
        return self._random.choice(seq)

    def shuffle(self, seq) -> None:
        """Shuffle *seq* in place."""
        self._random.shuffle(seq)

    def sample(self, seq, k: int):
        """Sample *k* distinct elements."""
        return self._random.sample(seq, k)

    def bytes(self, n: int) -> bytes:
        """Return *n* pseudorandom bytes."""
        return self._random.getrandbits(8 * n).to_bytes(n, "big") if n else b""

    def nonce32(self) -> int:
        """A 32-bit nonce for session authentication tokens."""
        return self._random.getrandbits(32)

    def nonce64(self) -> int:
        """A 64-bit pairing nonce (pre-arranged through S, paper §3.4)."""
        return self._random.getrandbits(64)

    def chance(self, probability: float) -> bool:
        """True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability
