"""Dirichlet-multinomial baseline: chain, halving tree and closed form agree;
round-trips; golden payloads."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from msetzip.dirmult import (
    DEFAULT_ALPHA,
    IntMultiset,
    decode_dirmult,
    encode_dirmult,
    ideal_codelength_dirmult,
)
from msetzip.quantize import quantized_betabin
from msetzip.rangecoder import RangeDecoder, RangeEncoder

HALF = Fraction(1, 2)


def rising(x: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= x + i
    return out


def exact_betabin(n: int, k: int, a: Fraction, b: Fraction) -> Fraction:
    return Fraction(math.comb(n, k)) * rising(a, k) * rising(b, n - k) / rising(a + b, n)


def exact_dirmult(ms: IntMultiset, alpha: Fraction) -> Fraction:
    """Closed-form law over count vectors, in exact rationals."""
    coef = Fraction(math.factorial(ms.n))
    for m in ms.counts:
        coef /= math.factorial(m)
    p = coef / rising(ms.k * alpha, ms.n)
    for m in ms.counts:
        p *= rising(alpha, m)
    return p


def exact_chain(ms: IntMultiset, alpha: Fraction) -> Fraction:
    """Product of the per-slot Beta-binomial pmfs the encoder codes."""
    p = Fraction(1)
    rem = ms.n
    for i, m in enumerate(ms.counts):
        slots_after = ms.k - (i + 1)
        if rem == 0 or slots_after == 0:
            break
        p *= exact_betabin(rem, m, alpha, slots_after * alpha)
        rem -= m
    return p


def exact_halving(counts: tuple, alpha: Fraction) -> Fraction:
    """Product of the Beta-binomial pmfs of the halving tree: the count of
    the left half (the first len // 2 slots) given the node's total, then
    each half in turn."""
    n = sum(counts)
    if n == 0 or len(counts) == 1:
        return Fraction(1)
    mid = len(counts) // 2
    left, right = counts[:mid], counts[mid:]
    return (
        exact_betabin(n, sum(left), mid * alpha, len(right) * alpha)
        * exact_halving(left, alpha)
        * exact_halving(right, alpha)
    )


def round_trip(ms: IntMultiset, alpha=DEFAULT_ALPHA):
    enc = RangeEncoder()
    encode_dirmult(ms, enc, alpha)
    payload = enc.finish()
    dec = RangeDecoder.from_bytes(payload.data)
    assert decode_dirmult(ms.k, ms.n, dec, alpha) == ms
    return payload, enc


def random_multiset(rng, k, n) -> IntMultiset:
    return IntMultiset.from_values([rng.randint(1, k) for _ in range(n)], k)


class TestExactIdentities:
    @pytest.mark.parametrize("alpha", [HALF, Fraction(1), Fraction(3, 7)])
    def test_chain_telescopes_to_dirmult(self, alpha):
        # the slot-by-slot code realizes the joint law exactly
        rng = random.Random(31)
        for _ in range(40):
            k = rng.randint(1, 12)
            ms = random_multiset(rng, k, rng.randint(0, 30))
            assert exact_chain(ms, alpha) == exact_dirmult(ms, alpha)

    @pytest.mark.parametrize("alpha", [HALF, Fraction(1), Fraction(3, 7)])
    def test_halving_tree_telescopes_to_dirmult(self, alpha):
        # the aggregation property: the tree the coder walks realizes the
        # joint law exactly, for every alphabet size, powers of two or not
        rng = random.Random(53)
        for k in range(1, 13):
            for n in (0, 1, 30, rng.randint(2, 29), rng.randint(2, 29)):
                ms = random_multiset(rng, k, n)
                assert exact_halving(ms.counts, alpha) == exact_dirmult(ms, alpha)

    def test_ideal_matches_exact_law(self):
        rng = random.Random(77)
        for _ in range(40):
            k = rng.randint(1, 20)
            ms = random_multiset(rng, k, rng.randint(1, 50))
            p = exact_dirmult(ms, HALF)
            want = math.log2(p.denominator) - math.log2(p.numerator)
            assert ideal_codelength_dirmult(ms) == pytest.approx(want, abs=1e-6)

    def test_certain_outcomes_are_free(self):
        # K = 1 leaves nothing to code; so does an empty multiset
        for ms in (IntMultiset(1, (9,)), IntMultiset(6, (0,) * 6)):
            payload, enc = round_trip(ms)
            assert enc.symbols_coded == 0
            assert payload.nbits == 0
            assert ideal_codelength_dirmult(ms) == pytest.approx(0.0, abs=1e-12)


class TestCoding:
    def test_k2_reduces_to_one_betabin_draw(self):
        ms = IntMultiset(2, (3, 5))
        payload, _ = round_trip(ms)
        enc = RangeEncoder()
        enc.encode_interval(quantized_betabin(8, HALF, HALF).interval_of(3))
        assert enc.finish() == payload

    def test_round_trips(self):
        rng = random.Random(4)
        cases = [
            IntMultiset(3, (0, 7, 0)),
            IntMultiset(5, (1, 1, 1, 1, 1)),
            IntMultiset(4, (0, 0, 0, 9)),
        ]
        cases += [random_multiset(rng, rng.randint(1, 40), rng.randint(0, 80)) for _ in range(25)]
        for ms in cases:
            round_trip(ms)
            round_trip(ms, alpha=Fraction(2))

    def test_sparse_large_alphabet(self):
        rng = random.Random(11)
        ms = IntMultiset.from_values([rng.randint(1, 100_000) for _ in range(60)], 100_000)
        payload, enc = round_trip(ms)
        ideal = ideal_codelength_dirmult(ms)
        assert payload.nbits <= ideal + 2 + 0.01 * enc.symbols_coded
        # one decision per tree level per member at most, not one per slot
        assert enc.symbols_coded <= 60 * math.ceil(math.log2(100_000))

    def test_payload_close_to_ideal(self):
        rng = random.Random(9)
        for _ in range(20):
            ms = random_multiset(rng, rng.randint(2, 30), rng.randint(1, 60))
            payload, enc = round_trip(ms)
            ideal = ideal_codelength_dirmult(ms)
            assert payload.nbits <= ideal + 2 + 0.01 * enc.symbols_coded

    def test_decode_of_noise_is_a_valid_multiset(self):
        rng = random.Random(13)
        for _ in range(50):
            data = bytes(rng.randrange(256) for _ in range(40))
            ms = decode_dirmult(17, 25, RangeDecoder.from_bytes(data))
            assert ms.k == 17 and ms.n == 25


class TestValidation:
    def test_from_values_bounds(self):
        with pytest.raises(ValueError):
            IntMultiset.from_values([0], 4)
        with pytest.raises(ValueError):
            IntMultiset.from_values([5], 4)
        assert IntMultiset.from_values([4, 4, 1], 4).counts == (1, 0, 0, 2)

    def test_count_vector_shape(self):
        with pytest.raises(ValueError):
            IntMultiset(3, (1, 2))
        with pytest.raises(ValueError):
            IntMultiset(2, (1, -1))
        with pytest.raises(ValueError):
            IntMultiset(0, ())

    def test_alpha_positive(self):
        ms = IntMultiset(2, (1, 1))
        with pytest.raises(ValueError):
            encode_dirmult(ms, RangeEncoder(), Fraction(0))
        with pytest.raises(ValueError):
            decode_dirmult(2, 2, RangeDecoder.from_bytes(b""), Fraction(-1))


# Payloads recorded when the halving walk was introduced, as (nbits, hex).
# A mismatch means the baseline's bytes changed.
GOLDEN = [
    (IntMultiset(1, (7,)), 0, ""),
    (IntMultiset(2, (3, 5)), 4, "70"),
    (IntMultiset(5, (0, 4, 0, 0, 2)), 6, "b4"),
    (IntMultiset(17, (2, 0, 0, 1, 0, 3, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 5)), 27, "6fa65620"),
]


class TestGolden:
    @pytest.mark.parametrize("ms, nbits, hexdata", GOLDEN, ids=["k1", "k2", "k5", "k17"])
    def test_small_payloads(self, ms, nbits, hexdata):
        payload, _ = round_trip(ms)
        assert (payload.nbits, payload.data.hex()) == (nbits, hexdata)

    def test_sparse_payload(self):
        # 200 draws over K = 10**4: most slots empty, a few doubles
        rng = random.Random(2024)
        ms = IntMultiset.from_values([1 + rng.getrandbits(32) % 10_000 for _ in range(200)], 10_000)
        payload, _ = round_trip(ms)
        assert payload.nbits == 1416
        assert hashlib.sha256(payload.data).hexdigest() == (
            "343a98943048d4faca8eff46c8000838eb1c5eb2bd6a6ae3aae5c74a5ee87760"
        )
