"""Closed-form oracles for the pmf tables.

The binomial oracle is exact rational arithmetic (math.comb and Fraction
powers); the Beta-binomial oracle is a log-Gamma product in a different
factorization than the implementation's anchored recurrence.  Both are
evaluated per-k, never via the recurrence under test.
"""

import math
import random
from fractions import Fraction

import pytest

from msetzip.distributions import (
    betabin_log2pmf_table,
    binomial_log2pmf_table,
    trinomial_log2pmf,
)

LN2 = math.log(2.0)


def binomial_pmf_exact(n: int, theta: Fraction) -> list[Fraction]:
    return [
        math.comb(n, k) * theta**k * (1 - theta) ** (n - k) for k in range(n + 1)
    ]


def betabin_log2pmf_oracle(n: int, k: int, a: float, b: float) -> float:
    # log C(n,k) + log B(k+a, n-k+b) - log B(a, b), direct per-k evaluation
    log_choose = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    log_beta_top = math.lgamma(k + a) + math.lgamma(n - k + b) - math.lgamma(n + a + b)
    log_beta_bot = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (log_choose + log_beta_top - log_beta_bot) / LN2


THETAS = [Fraction(1, 2), Fraction(1, 3), Fraction(9, 10), Fraction(1, 1000)]


class TestBinomial:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 23, 100, 1000])
    @pytest.mark.parametrize("theta", THETAS)
    def test_matches_exact_pmf(self, n, theta):
        table = binomial_log2pmf_table(n, theta)
        exact = binomial_pmf_exact(n, theta)
        for k in range(n + 1):
            log2_exact = math.log2(exact[k].numerator) - math.log2(exact[k].denominator)
            assert table[k] == pytest.approx(log2_exact, abs=1e-9, rel=1e-12), (n, k)
            # probability-scale agreement, the stated 1e-6 tolerance
            assert abs(2.0 ** table[k] - float(exact[k])) <= 1e-6

    @pytest.mark.parametrize("n", [1, 10, 137, 1000])
    @pytest.mark.parametrize("theta", THETAS)
    def test_sums_to_one(self, n, theta):
        table = binomial_log2pmf_table(n, theta)
        assert abs(math.fsum(map(math.exp2, table)) - 1.0) <= 1e-9

    def test_degenerate_theta(self):
        t0 = binomial_log2pmf_table(5, 0)
        assert list(t0) == [0.0] + [-math.inf] * 5
        t1 = binomial_log2pmf_table(5, 1)
        assert list(t1) == [-math.inf] * 5 + [0.0]

    def test_bad_args(self):
        with pytest.raises(ValueError):
            binomial_log2pmf_table(-1, Fraction(1, 2))
        with pytest.raises(ValueError):
            binomial_log2pmf_table(5, Fraction(3, 2))


class TestBetaBinomial:
    @pytest.mark.parametrize("n", [0, 1, 2, 9, 100, 1000])
    @pytest.mark.parametrize(
        "a,b", [(0.5, 0.5), (1.0, 1.0), (2.0, 5.0), (0.1, 3.0)]
    )
    def test_matches_lgamma_oracle(self, n, a, b):
        table = betabin_log2pmf_table(n, a, b)
        for k in range(n + 1):
            want = betabin_log2pmf_oracle(n, k, a, b)
            assert table[k] == pytest.approx(want, abs=1e-8, rel=1e-10), (n, k)
            assert abs(2.0 ** table[k] - 2.0**want) <= 1e-6

    def test_uniform_special_case(self):
        # Beta(1,1) compounds to the uniform distribution on 0..n
        table = betabin_log2pmf_table(64, 1, 1)
        want = -math.log2(65)
        assert all(abs(x - want) <= 1e-10 + 1e-5 * abs(want) for x in table)

    @pytest.mark.parametrize("n", [1, 10, 500, 1000])
    def test_sums_to_one(self, n):
        table = betabin_log2pmf_table(n, 0.5, 0.5)
        assert abs(math.fsum(map(math.exp2, table)) - 1.0) <= 1e-9

    def test_bad_args(self):
        with pytest.raises(ValueError):
            betabin_log2pmf_table(5, 0, 1)
        with pytest.raises(ValueError):
            betabin_log2pmf_table(5, 1, -2)


class TestTrinomial:
    def test_equals_chained_binomials(self):
        # Mult(n_t, n_0, n_1) must factor exactly as
        # Bin(n_t | n, theta_t) * Bin(n_1 | n - n_t, theta_1)
        rng = random.Random(42)
        for _ in range(300):
            n = rng.randint(0, 40)
            nt = rng.randint(0, n)
            n1 = rng.randint(0, n - nt)
            n0 = n - nt - n1
            tt = Fraction(rng.randint(0, 8), 8)
            t1 = Fraction(rng.randint(0, 8), 8)
            joint = trinomial_log2pmf(nt, n0, n1, tt, t1)
            term = binomial_log2pmf_table(n, tt)[nt]
            split = binomial_log2pmf_table(n - nt, t1)[n1]
            chained = float(term) + float(split)
            if math.isinf(joint) or math.isinf(chained):
                assert math.isinf(joint) and math.isinf(chained), (n, nt, n1, tt, t1)
            else:
                assert joint == pytest.approx(chained, abs=1e-9)

    def test_sums_to_one(self):
        n = 12
        tt, t1 = Fraction(1, 3), Fraction(2, 7)
        total = 0.0
        for nt in range(n + 1):
            for n1 in range(n - nt + 1):
                n0 = n - nt - n1
                total += 2.0 ** trinomial_log2pmf(nt, n0, n1, tt, t1)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_corners(self):
        assert trinomial_log2pmf(3, 0, 0, 1, Fraction(1, 2)) == 0.0
        assert trinomial_log2pmf(0, 2, 2, 0, Fraction(1, 2)) == pytest.approx(
            math.log2(math.comb(4, 2)) - 4
        )
        assert math.isinf(trinomial_log2pmf(1, 1, 0, 0, Fraction(1, 2)))
