"""Dirichlet-multinomial baseline: chain, halving tree and closed form agree;
round-trips; golden payloads."""

import gc
import hashlib
import itertools
import math
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msetzip.dirmult as dirmult
from msetzip.dirmult import (
    DEFAULT_ALPHA,
    IntMultiset,
    decode_dirmult,
    encode_dirmult,
    ideal_codelength_dirmult,
)
from msetzip.quantize import quantized_betabin
from msetzip.rangecoder import MASK, TOP, RangeDecoder, RangeEncoder

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


def uniform_draws(seed: int, n: int, k: int = 10_000) -> IntMultiset:
    rng = random.Random(seed)
    return IntMultiset.from_values([1 + rng.getrandbits(32) % k for _ in range(n)], k)


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
        enc.encode_interval(quantized_betabin(8, 1, 2, 1, 2), 3)
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
        # before any work: the encoder has coded nothing
        enc = RangeEncoder()
        with pytest.raises(ValueError, match="alpha must be positive"):
            encode_dirmult(IntMultiset(4, (1, 0, 2, 1)), enc, Fraction(0))
        assert (enc.low, enc.range, enc.symbols_coded) == (0, RangeEncoder().range, 0)
        with pytest.raises(ValueError):
            decode_dirmult(2, 2, RangeDecoder.from_bytes(b""), Fraction(-1))

    def test_counts_are_integers(self):
        with pytest.raises(ValueError, match="counts must be integers"):
            IntMultiset(2, (1, 1.5))
        with pytest.raises(ValueError, match="counts must be integers"):
            IntMultiset(3, (1, Fraction(1, 2), 0))

    @pytest.mark.parametrize(
        "k, n, alpha, match",
        [
            (0, 5, HALF, "alphabet bound k must be >= 1"),
            (-3, 2, HALF, "alphabet bound k must be >= 1"),
            (4, -1, HALF, "member count n must be >= 0"),
            (4, 2, Fraction(0), "alpha must be positive"),
        ],
        ids=["k0", "k-negative", "n-negative", "alpha0"],
    )
    def test_decode_checks_its_arguments_first(self, k, n, alpha, match):
        # before the walk: the decoder has read nothing
        dec = RangeDecoder.from_bytes(bytes(range(40)))
        state = (dec.value, dec.range, dec._pos)
        with pytest.raises(ValueError, match=match):
            decode_dirmult(k, n, dec, alpha)
        assert (dec.value, dec.range, dec._pos) == state

    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(-1), -0.5, float("nan")])
    def test_ideal_codelength_checks_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive"):
            ideal_codelength_dirmult(IntMultiset(2, (1, 1)), alpha)


def per_level_walk(k: int, n: int, alpha, below=None):
    """The halving walk with one decision per node, a node of one member
    included, each under its own table: the reference that the range
    coder's descent of a lone member must match."""
    num, den = alpha.as_integer_ratio()
    counts = [0] * k
    stack = [(0, k, n)] if n else []
    while stack:
        lo, hi, n = stack.pop()
        while hi - lo > 1:
            mid = (lo + hi) // 2
            half = (hi - lo) // 2
            cum = quantized_betabin(n, half * num, den, (hi - lo - half) * num, den)
            if below is None:
                left = yield cum
            else:
                left = below[mid] - below[lo]
                yield cum, left
            if left < n:
                stack.append((mid, hi, n - left))
            if not left:
                break
            hi, n = mid, left
        else:
            counts[lo] = n
    return counts


class TestDescent:
    """A lone member's levels coded as one descent item code exactly what
    the per-level decisions code."""

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.sampled_from([1, 2, 3, 5, 64, 10**4]),
        alpha=st.sampled_from([HALF, Fraction(1, 3), Fraction(2)]),
        seed=st.integers(0, 2**32),
        n=st.integers(0, 120),
    )
    def test_encoding_matches_per_level_decisions(self, k, alpha, seed, n):
        ms = random_multiset(random.Random(seed), k, n)
        enc, ref = RangeEncoder(), RangeEncoder()
        encode_dirmult(ms, enc, alpha)
        ref.encode_intervals(
            per_level_walk(k, ms.n, alpha, list(itertools.accumulate(ms.counts, initial=0)))
        )
        assert enc.symbols_coded == ref.symbols_coded
        assert enc.finish() == ref.finish()

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.sampled_from([1, 2, 3, 5, 64, 10**4]),
        alpha=st.sampled_from([HALF, Fraction(1, 3), Fraction(2)]),
        # a payload of eight 0xFF bytes sends every member left; only at
        # n = 1 does that reach a descent
        n=st.integers(0, 3) | st.integers(0, 120),
        data=st.one_of(
            st.binary(max_size=60),
            st.binary(max_size=40).map(lambda b: b"\xff" * 8 + b),
        ),
    )
    def test_decoding_matches_per_level_decisions(self, k, alpha, n, data):
        # on arbitrary bytes, and on payloads that open with eight 0xFF
        # bytes, whose value starts in the remainder zone
        dec, ref = RangeDecoder.from_bytes(data), RangeDecoder.from_bytes(data)
        got = decode_dirmult(k, n, dec, alpha)
        assert got.counts == tuple(ref.decode_walk(per_level_walk(k, n, alpha)))
        assert (dec.value, dec.range, dec._pos) == (ref.value, ref.range, ref._pos)

    @pytest.mark.parametrize("k", [2, 3, 5, 64])
    def test_decoding_from_edge_states(self, k):
        # the renormalisation threshold, ranges just below 2**64, a value on
        # either side of the bound between the outcomes, in the remainder
        # zone that the top outcome takes, and at the range itself
        data = bytes(random.Random(k).getrandbits(8) for _ in range(30))
        split = quantized_betabin(1, k // 2, 2, (k - k // 2), 2)
        for rng in (TOP, TOP + 1, 2**64 - 257, MASK):
            q = rng // split[-1]
            for value in {0, q * split[1] - 1, q * split[1], q * split[-1], rng - 1, rng}:
                for n in (1, 2, 3):
                    dec, ref = RangeDecoder.from_bytes(data), RangeDecoder.from_bytes(data)
                    dec.value, dec.range = ref.value, ref.range = value, rng
                    got = decode_dirmult(k, n, dec)
                    assert got.counts == tuple(ref.decode_walk(per_level_walk(k, n, HALF)))
                    assert (dec.value, dec.range, dec._pos) == (ref.value, ref.range, ref._pos)


def halving_nodes(counts: tuple) -> set:
    """The distinct (n, width) of the halving tree's nodes that code a count."""
    nodes = set()
    stack = [(0, len(counts))]
    while stack:
        lo, hi = stack.pop()
        n = sum(counts[lo:hi])
        if n and hi - lo > 1:
            nodes.add((n, hi - lo))
            mid = (lo + hi) // 2
            stack += [(lo, mid), (mid, hi)]
    return nodes


class TestTableCache:
    def test_one_build_per_distinct_node(self, monkeypatch):
        # the walk asks for each (count, width) table once per call, not
        # once per decision
        calls = Counter()

        def counted(*key):
            calls[key] += 1
            return quantized_betabin(*key)

        monkeypatch.setattr(dirmult, "quantized_betabin", counted)
        ms = random_multiset(random.Random(5), 3000, 400)
        enc = RangeEncoder()
        encode_dirmult(ms, enc)
        assert max(calls.values()) == 1
        assert sum(calls.values()) == len(halving_nodes(ms.counts)) < enc.symbols_coded

    def test_tables_retained_per_call_stay_bounded(self, monkeypatch):
        # a round trip over many distinct (count, width) nodes keeps at
        # most the bound's tables alive, and none once the call returns
        monkeypatch.setattr(dirmult, "TABLES_PER_CALL", 8)
        live = peak = 0

        def release():
            nonlocal live
            live -= 1

        def tracked(*key):
            nonlocal live, peak
            table = quantized_betabin(*key)[:]
            weakref.finalize(table, release)
            live += 1
            peak = max(peak, live)
            return table

        monkeypatch.setattr(dirmult, "quantized_betabin", tracked)
        ms = random_multiset(random.Random(6), 4096, 300)
        assert len(halving_nodes(ms.counts)) > 50
        round_trip(ms)
        gc.collect()
        # 8 tables cached, plus the one in hand
        assert 0 < peak <= 8 + 1
        assert live == 0


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

    # (nbits, sha256) at alphas other than the default and at the
    # fib-dirmult workload's shape, recorded before the walk cached its
    # tables per call
    @pytest.mark.parametrize(
        "ms, alpha, nbits, digest",
        [
            (GOLDEN[-1][0], Fraction(1, 3), 24,
             "50c49f08f700c04cf15e78a52e8f99876d7579020cbbecfcf79b93289d6c13f9"),
            (uniform_draws(2025, 200), Fraction(1, 3), 1420,
             "38f692804053ea11505d06fcd85d6aee0333325e82efe6293b8b0e5942d64e96"),
            (GOLDEN[-1][0], Fraction(2), 29,
             "8d38db4951e6dcfa835c1112d14a2f0410cc870ceb0f923caff54cf34c2a512a"),
            (uniform_draws(2025, 200), Fraction(2), 1414,
             "959ce5f2a3ae70ee65fcc51db252db8479c7a51d1ab1892f1819d35b51182f05"),
            (uniform_draws(7, 1000), DEFAULT_ALPHA, 4868,
             "6328479c3f817bd81a6fd192afece66af566c773c9ff7978258469d16848f6cd"),
            # alpha as a float and as an int, which the walk keys by their
            # exact ratios
            (GOLDEN[-1][0], 0.3, 25,
             "d0815a8335257ef83a13650aff1e84cc4cc25179a360307d173a6e715baa93ef"),
            (uniform_draws(2025, 200), 0.3, 1420,
             "a8ec95ab209ad6ffe2d00a993c42e0c7738895dd1d30240df5f5411629bf1d3a"),
            (uniform_draws(2025, 200), 1e-3, 2035,
             "e226750fb0bbac07e6423a18946439402525a5b691ccbe4d8eb754e4d2d116c7"),
            (GOLDEN[-1][0], 2, 29,
             "8d38db4951e6dcfa835c1112d14a2f0410cc870ceb0f923caff54cf34c2a512a"),
        ],
        ids=[
            "third-k17", "third-sparse", "two-k17", "two-sparse", "bench-shape",
            "float-k17", "float-sparse", "tiny-float-sparse", "int-k17",
        ],
    )
    def test_pinned_payloads(self, ms, alpha, nbits, digest):
        payload, _ = round_trip(ms, alpha)
        assert (payload.nbits, hashlib.sha256(payload.data).hexdigest()) == (nbits, digest)
