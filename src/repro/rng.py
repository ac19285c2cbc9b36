"""Deterministic, structure-keyed randomness.

Every stochastic decision in the simulator (does this host answer pings?
does this router stamp RR? how many internal hops does this AS have?) is
derived from a scenario seed plus the identity of the entity deciding.
That makes whole scenarios reproducible bit-for-bit from a single integer
seed, independent of iteration order, process hash randomisation, and
call ordering — a property the tests and benchmarks rely on heavily.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Sequence, Tuple, TypeVar

__all__ = [
    "StablePrefix",
    "stable_u64",
    "stable_uniform",
    "stable_choice",
    "stable_randint",
    "stable_rng",
    "derive_seed",
    "shuffle",
]

T = TypeVar("T")


def _feed(hasher, parts: Tuple[object, ...]) -> None:
    """Feed primitive parts to a stable hasher, in order.

    Each part goes in as its ``repr`` followed by a unit separator
    (so ``("ab", "c") != ("a", "bc")``), all in one update: UTF-8
    encodes a concatenation as the concatenation of its parts.
    """
    hasher.update(("%r\x1f" * len(parts) % parts).encode("utf-8"))


def _digest(parts: Tuple[object, ...]) -> bytes:
    """Hash a tuple of primitive parts into 8 stable bytes."""
    hasher = hashlib.blake2b(digest_size=8)
    _feed(hasher, parts)
    return hasher.digest()


def stable_u64(*parts: object) -> int:
    """A uniform 64-bit integer keyed by ``parts``."""
    return int.from_bytes(_digest(parts), "big")


class StablePrefix:
    """:func:`stable_u64` draws under a fixed key prefix, hashed once.

    ``StablePrefix(*a).u64(*b) == stable_u64(*a, *b)`` for any parts:
    blake2b is a streaming hash, so each draw copies the prefix's
    hasher state and feeds only the remaining parts. Worth it in loops
    that draw per destination under one (seed, label, VP) key.

    A loop hot enough that the draw's own call frames show can inline
    it through :attr:`copy`::

        hasher = prefix.copy()
        hasher.update(("%r\x1f" * len(parts) % parts).encode())
        int.from_bytes(hasher.digest(), "big")  # == prefix.u64(*parts)

    which feeds the parts exactly as :func:`_feed` does, whatever
    their type.
    """

    __slots__ = ("_hasher", "copy")

    def __init__(self, *parts: object) -> None:
        self._hasher = hashlib.blake2b(digest_size=8)
        _feed(self._hasher, parts)
        #: A fresh copy of the prefix's hasher state, to feed and
        #: digest in place of a :meth:`u64` call.
        self.copy = self._hasher.copy

    def u64(self, *parts: object) -> int:
        hasher = self._hasher.copy()
        _feed(hasher, parts)
        return int.from_bytes(hasher.digest(), "big")


def stable_uniform(*parts: object) -> float:
    """A uniform float in [0, 1) keyed by ``parts``."""
    return stable_u64(*parts) / (1 << 64)


def stable_randint(low: int, high: int, *parts: object) -> int:
    """A uniform integer in [low, high] inclusive, keyed by ``parts``."""
    if high < low:
        raise ValueError(f"empty range [{low}, {high}]")
    return low + stable_u64(*parts) % (high - low + 1)


def stable_choice(options: Sequence[T], *parts: object) -> T:
    """Pick one of ``options`` uniformly, keyed by ``parts``."""
    if not options:
        raise ValueError("cannot choose from an empty sequence")
    return options[stable_u64(*parts) % len(options)]


def stable_rng(*parts: object) -> random.Random:
    """A :class:`random.Random` seeded stably by ``parts``.

    Use when a decision needs many draws (e.g. shuffling a probe order);
    for one-shot decisions prefer :func:`stable_uniform` and friends.
    """
    return random.Random(stable_u64(*parts))


def shuffle(rng: random.Random, items: list) -> None:
    """``rng.shuffle(items)``, without a call frame per element.

    The same Fisher-Yates walk and the same rejection draws as
    :meth:`random.Random.shuffle` (``_randbelow_with_getrandbits``),
    made through the bound ``getrandbits``, so every seed gives the
    same permutation and leaves ``rng`` in the same state. Position
    ``i`` swaps with a draw below ``i + 1``; positions whose ``i + 1``
    shares a bit length draw that many bits, so it is set per run.
    """
    getrandbits = rng.getrandbits
    top = len(items) - 1
    while top > 0:
        bits = (top + 1).bit_length()
        low = (1 << (bits - 1)) - 1
        for i in range(top, low - 1, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            items[i], items[j] = items[j], items[i]
        top = low - 1


def derive_seed(seed: int, label: str) -> int:
    """Derive an independent child seed from ``seed`` for ``label``."""
    return stable_u64(seed, "derive", label)


def weighted_choice(
    rng: random.Random, weighted: Iterable[Tuple[T, float]]
) -> T:
    """Pick an item from ``(item, weight)`` pairs using ``rng``."""
    pairs = list(weighted)
    total = sum(weight for _item, weight in pairs)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    target = rng.random() * total
    accumulated = 0.0
    for item, weight in pairs:
        accumulated += weight
        if target < accumulated:
            return item
    return pairs[-1][0]
