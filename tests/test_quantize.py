"""Quantized frequency tables: determinism, losslessness, redundancy bound."""

import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

import msetzip
from msetzip.dirmult import IntMultiset, decode_dirmult, encode_dirmult
from msetzip.distributions import betabin_log2pmf_table, binomial_log2pmf_table
from msetzip.errors import ModelMismatchError
from msetzip.models import GeometricLength
from msetzip.quantize import quantize, quantized_betabin, quantized_binomial
from msetzip.rangecoder import TOTAL_MAX, RangeDecoder, RangeEncoder
from msetzip.treecodec import (
    BetaBinomialFamily,
    BinomialFamily,
    CodecParams,
    FixedRegime,
    GeneralRegime,
)


def freqs(cum) -> list[int]:
    """The table's frequency per outcome."""
    return [hi - lo for lo, hi in zip(cum, cum[1:])]


def log2prob(cum, k: int) -> float:
    """log2 of outcome k's quantized probability, -inf where it is dead."""
    f = cum[k + 1] - cum[k]
    return math.log2(f) - math.log2(cum[-1]) if f else -math.inf


def test_dyadic_binomial_is_exact():
    # After gcd reduction Binomial(7, 1/2) is literally C(7, k) / 128
    q = quantized_binomial(7, 1, 2)
    assert q[-1] == 128
    assert freqs(q) == [math.comb(7, k) for k in range(8)]
    # the worked example: k=3 costs -log2(35/128) = 1.8707 bits
    assert -log2prob(q, 3) == pytest.approx(7 - math.log2(35), abs=1e-12)


def test_small_dyadic_binomials_all_exact():
    for n in range(0, 24):
        q = quantized_binomial(n, 1, 2)
        assert q[-1] == 2**n
        assert freqs(q) == [math.comb(n, k) for k in range(n + 1)]


def test_every_live_outcome_gets_mass():
    for n in (1, 10, 100, 2000):
        q = quantized_binomial(n, 1, 2)
        assert min(freqs(q)) >= 1  # theta=1/2 has full support
        assert q[-1] <= TOTAL_MAX


def test_zero_probability_outcomes_get_none():
    q = quantize(binomial_log2pmf_table(6, 0))
    assert freqs(q) == [1, 0, 0, 0, 0, 0, 0]
    assert q[-1] == 1
    with pytest.raises(ModelMismatchError):
        RangeEncoder().encode_interval(q, 3)


def test_point_mass_is_free():
    q = quantize(binomial_log2pmf_table(9, 1))
    assert q[-1] == 1
    assert log2prob(q, 9) == 0.0


def test_sum_abs_error_binomial_100():
    q = quantized_binomial(100, 1, 2)
    pmf = map(math.exp2, binomial_log2pmf_table(100, Fraction(1, 2)))
    err = sum(abs(f / q[-1] - p) for f, p in zip(freqs(q), pmf))
    assert err <= 1e-4, err


@pytest.mark.parametrize(
    "log2pmf",
    [
        binomial_log2pmf_table(100, Fraction(1, 2)),
        binomial_log2pmf_table(1000, Fraction(1, 2)),
        binomial_log2pmf_table(1000, Fraction(1, 10)),
        betabin_log2pmf_table(500, 0.5, 0.5),
        betabin_log2pmf_table(2000, 2, 5),
        [-10.0] * (1 << 10),  # uniform over 1024 outcomes
    ],
    ids=["bin100", "bin1000", "bin1000skew", "bb500", "bb2000", "uniform1k"],
)
def test_redundancy_bound(log2pmf):
    # -log2(freq/total) + log2 p(k) <= 0.01 whenever p(k) >= 2**-16
    q = quantize(log2pmf)
    for k, lp in enumerate(log2pmf):
        if lp >= -16.0:
            penalty = -log2prob(q, k) + float(lp)
            assert penalty <= 0.01, (k, penalty)


def test_deterministic():
    t = betabin_log2pmf_table(333, 0.5, 0.5)
    a, b = quantize(t), quantize(t)
    assert a[-1] == b[-1]
    assert freqs(a) == freqs(b)


def test_every_outcome_round_trips():
    q = quantized_betabin(40, 1, 2, 1, 2)
    for k in range(41):
        enc = RangeEncoder()
        enc.encode_interval(q, k)
        dec = RangeDecoder.from_bytes(enc.finish().data)
        assert dec.decode_target(q) == k


def test_dead_outcomes_are_skipped():
    q = quantize([math.log2(0.5), -math.inf, math.log2(0.5)])
    assert freqs(q) == [1, 0, 1]
    for k in (0, 2):
        enc = RangeEncoder()
        enc.encode_interval(q, k)
        dec = RangeDecoder.from_bytes(enc.finish().data)
        assert dec.decode_target(q) == k
    with pytest.raises(ModelMismatchError):
        RangeEncoder().encode_interval(q, 1)


def test_a_big_outcome_that_floors_to_zero_is_lifted():
    # 20,000 tiny outcomes take 20,000 units of the budget, so the others
    # shrink and the raw 1.0003 floors to 0 after rescaling; it is lifted
    # to 1, the unit taken from the largest outcome, and its remainder then
    # tops it up to 2
    edge, tiny = 1.0003, 20_000
    raw = [edge] + [0.5] * tiny + [TOTAL_MAX - edge - 0.5 * tiny]
    log2pmf = [math.log2(r / TOTAL_MAX) for r in raw]
    q = quantize(log2pmf)
    f = freqs(q)
    assert f[0] == 2
    assert min(f) >= 1 and q[-1] <= TOTAL_MAX
    assert -log2prob(q, tiny + 1) + log2pmf[-1] <= 0.01
    digest = "71d7619b25ee5face613f1d89f7b4d1241426a9b1c020339a273c485486a7da4"
    assert hashlib.sha256(",".join(map(str, q)).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "log2pmf,message",
    [([], "empty pmf"), ([-math.inf], "empty support"), ([-math.inf] * 3, "empty support")],
)
def test_empty_pmf_or_support_rejected(log2pmf, message):
    with pytest.raises(ValueError, match=message):
        quantize(log2pmf)


def test_support_larger_than_budget_rejected():
    with pytest.raises(ValueError):
        quantize([-30.0] * (TOTAL_MAX + 1))


@pytest.mark.parametrize(
    "build",
    [
        lambda n: quantized_betabin(n, 1, 2, 1, 2),
        lambda n: quantized_binomial(n, 1, 3),
        lambda n: decode_dirmult(2, n, RangeDecoder(bytes(8))),
    ],
    ids=["betabin", "binomial", "dirmult"],
)
@pytest.mark.parametrize("n", [TOTAL_MAX, 10**9])
def test_a_table_wider_than_the_budget_is_refused_before_it_is_built(build, n):
    # n + 1 outcomes with mass cannot each have a count of 1: refused at
    # once, with the error quantize gives, and no float table built first
    start = time.process_time()
    with pytest.raises(ValueError, match=f"^support {n + 1} exceeds total budget {TOTAL_MAX}$"):
        build(n)
    assert time.process_time() - start < 0.5


def test_one_slot_of_any_count_builds_no_table():
    # one slot holds every member, so a huge n codes nothing and stays valid
    start = time.process_time()
    assert decode_dirmult(1, 10**9, RangeDecoder(bytes(8))).counts == (10**9,)
    enc = RangeEncoder()
    encode_dirmult(IntMultiset(1, (10**9,)), enc)
    assert enc.finish().nbits == 0
    assert time.process_time() - start < 0.5


def test_interval_out_of_support_rejected():
    q = quantized_binomial(4, 1, 2)
    with pytest.raises(ModelMismatchError):
        RangeEncoder().encode_interval(q, 5)


def test_total_never_exceeds_cap():
    # heavy tails force many tiny entries; the budget must still hold
    t = betabin_log2pmf_table(20000, 0.5, 0.5)
    q = quantize(t)
    assert q[-1] <= TOTAL_MAX
    assert all(f >= 1 for f, lp in zip(freqs(q), t) if math.isfinite(lp))


@pytest.mark.parametrize(
    "n,digest",
    [
        (818, "426cbbaca68a1ecf04198fde715ae2162da71a50846e218b1f4202dc297c1f05"),
        (820, "a36ed6196aebb70d258e933f485bc38f793613ac2322d96e5b015475e8a747ee"),
        (1722, "34a1fcc83b35ea3c462f66fb401e0680f2a905b68a6884b53071e294ed62fabb"),
    ],
    ids=["818", "820", "1722"],
)
def test_tables_pinned_where_simd_paths_disagreed(n, digest):
    # numpy's AVX512 exp2/log2 kernels built other tables at these n than
    # its libm path did; the decoder must rebuild the encoder's tables
    # exactly, so pin the libm ones.
    cum = quantized_betabin(n, 1, 2, 1, 2)
    assert hashlib.sha256(",".join(map(str, cum)).encode()).hexdigest() == digest


# Each parameter as a Fraction, a float and an int, the point masses at
# theta = 0 and 1 among them
THETAS = [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(9, 10), 0.0, 1.0, 0.3, 0.5, 1e-3, 0, 1]
BETAS = [
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(2), Fraction(5)),
    (Fraction(1, 3), 0.75),
    (0.5, 2),
    (0.3, 7.25),
    (1e-3, 1),
    (2, 5),
]
SIZES = [*range(65), 100, 257, 1000]


@pytest.mark.parametrize("theta", THETAS, ids=repr)
def test_binomial_keyed_by_exact_ratio_is_the_parameters_table(theta):
    for n in SIZES:
        want = quantize(binomial_log2pmf_table(n, theta))
        assert quantized_binomial(n, *theta.as_integer_ratio()) == want


@pytest.mark.parametrize("alpha, beta", BETAS, ids=repr)
def test_betabin_keyed_by_exact_ratios_is_the_parameters_table(alpha, beta):
    for n in SIZES:
        want = quantize(betabin_log2pmf_table(n, alpha, beta))
        assert quantized_betabin(n, *alpha.as_integer_ratio(), *beta.as_integer_ratio()) == want


def _tree_round_trip(members, params):
    def run():
        assert msetzip.decompress(msetzip.compress(members, params)) == sorted(
            map(msetzip.BitString.from_str, members)
        )

    return run


def _dirmult_round_trip(ms):
    def run():
        enc = RangeEncoder()
        encode_dirmult(ms, enc)
        dec = RangeDecoder.from_bytes(enc.finish().data)
        assert decode_dirmult(ms.k, ms.n, dec) == ms

    return run


_rng = random.Random(8)
_varied = ["".join(_rng.choice("01") for _ in range(_rng.randint(1, 40))) for _ in range(60)]
_fixed = [format(_rng.getrandbits(16), "016b") for _ in range(300)]
_uniform = [_rng.randint(1, 10_000) for _ in range(1000)]


@pytest.mark.parametrize(
    "round_trip",
    [
        _tree_round_trip(
            _varied + _varied[:20] * 3,
            CodecParams(GeneralRegime(GeometricLength(Fraction(1, 8))), BetaBinomialFamily()),
        ),
        _tree_round_trip(_fixed, CodecParams(FixedRegime(16), BinomialFamily())),
        _dirmult_round_trip(IntMultiset.from_values(_uniform, 10_000)),
    ],
    ids=["general-betabin", "fixed-binomial", "dirmult"],
)
def test_a_warm_round_trip_hashes_no_fraction(monkeypatch, round_trip):
    # Tables are keyed by exact integer ratios, per call and module-wide,
    # so once the module caches are warm a call builds no table and hashes
    # no Fraction, though the parameters are Fractions.
    round_trip()
    hashed = 0
    fraction_hash = Fraction.__hash__

    def counted(self):
        nonlocal hashed
        hashed += 1
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    round_trip()
    assert hashed == 0
