"""Tests for repro.rng: structure-keyed deterministic randomness."""

import enum
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.rng import (
    StablePrefix,
    _feed,
    derive_seed,
    shuffle,
    stable_choice,
    stable_randint,
    stable_rng,
    stable_u64,
    stable_uniform,
    weighted_choice,
)


class TestStability:
    def test_same_key_same_value(self):
        assert stable_u64(1, "a", 2) == stable_u64(1, "a", 2)

    def test_different_keys_differ(self):
        assert stable_u64(1, "a") != stable_u64(1, "b")

    def test_no_concatenation_ambiguity(self):
        # ("ab", "c") must not hash like ("a", "bc").
        assert stable_u64("ab", "c") != stable_u64("a", "bc")

    def test_uniform_in_unit_interval(self):
        values = [stable_uniform(7, "x", i) for i in range(500)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.4 < sum(values) / len(values) < 0.6

    def test_randint_bounds_inclusive(self):
        values = {stable_randint(3, 5, 9, i) for i in range(200)}
        assert values == {3, 4, 5}

    def test_randint_empty_range_rejected(self):
        with pytest.raises(ValueError):
            stable_randint(5, 3, "k")

    def test_choice_draws_from_options(self):
        options = ["a", "b", "c"]
        picks = {stable_choice(options, i) for i in range(100)}
        assert picks == set(options)

    def test_choice_empty_rejected(self):
        with pytest.raises(ValueError):
            stable_choice([], 1)

    def test_rng_reproducible_stream(self):
        a = stable_rng(42, "stream").random()
        b = stable_rng(42, "stream").random()
        assert a == b

    def test_derive_seed_independent(self):
        base = 1234
        assert derive_seed(base, "x") != derive_seed(base, "y")
        assert derive_seed(base, "x") != base


class TestWeightedChoice:
    def test_zero_weight_never_chosen(self):
        rng = stable_rng(1, "w")
        picks = {
            weighted_choice(rng, [("a", 0.0), ("b", 1.0)]) for _ in range(50)
        }
        assert picks == {"b"}

    def test_rough_proportions(self):
        rng = stable_rng(2, "w")
        picks = [
            weighted_choice(rng, [("a", 3.0), ("b", 1.0)])
            for _ in range(2000)
        ]
        share = picks.count("a") / len(picks)
        assert 0.68 < share < 0.82

    def test_nonpositive_total_rejected(self):
        with pytest.raises(ValueError):
            weighted_choice(stable_rng(3), [("a", 0.0)])


class _Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


def _reference_feed(hasher, parts):
    """The per-part loop ``_feed`` replaced: two updates per part."""
    for part in parts:
        hasher.update(repr(part).encode("utf-8"))
        hasher.update(b"\x1f")


def _digest(feed, parts):
    hasher = hashlib.blake2b(digest_size=8)
    feed(hasher, parts)
    return hasher.digest()


_ATOMS = st.one_of(
    st.integers(min_value=-(1 << 80), max_value=1 << 80),
    st.booleans(),
    st.sampled_from(list(_Colour)),
    st.text(),
    st.sampled_from(["%", "%r", "%s%d", "\x1f", "a\x1fb", "ü→中", "%%"]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
)
_PARTS = st.lists(
    st.recursive(_ATOMS, lambda inner: st.tuples(inner, inner), max_leaves=4),
    max_size=6,
).map(tuple)


class TestFeed:
    @settings(max_examples=300, deadline=None)
    @given(parts=_PARTS)
    def test_one_update_equals_per_part_loop(self, parts):
        assert _digest(_feed, parts) == _digest(_reference_feed, parts)

    @settings(max_examples=100, deadline=None)
    @given(prefix=_PARTS, rest=_PARTS)
    def test_draws_equal_reference_digests(self, prefix, rest):
        reference = int.from_bytes(
            _digest(_reference_feed, prefix + rest), "big"
        )
        assert stable_u64(*prefix, *rest) == reference
        assert StablePrefix(*prefix).u64(*rest) == reference


#: Lengths for the shuffle pin: the small edge cases, both sides of
#: every power of two a bit-length run starts at, a spread in between
#: and the ``mid`` hitlist's 3,454.
SHUFFLE_LENGTHS = sorted(
    set(range(0, 20))
    | {(1 << k) + d for k in range(2, 12) for d in (-1, 0, 1)}
    | set(range(20, 3454, 173))
    | {3453, 3454}
)


class TestShuffle:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2016, 2019, 1 << 40])
    def test_equals_random_shuffle(self, seed):
        for length in SHUFFLE_LENGTHS:
            for salt in range(3):
                reference = random.Random(stable_u64(seed, salt, length))
                fast = random.Random(stable_u64(seed, salt, length))
                expected = list(range(length))
                got = list(range(length))
                reference.shuffle(expected)
                shuffle(fast, got)
                assert got == expected, (seed, salt, length)
                assert fast.getstate() == reference.getstate()
