"""Log2-domain pmf tables for the count distributions used by the codecs.

Binomial tables are anchored at the distribution mode with a log-Gamma
evaluation and swept outward with the ratio recurrence

    Bin(k+1 | n, t) = Bin(k | n, t) * (n - k) / (k + 1) * t / (1 - t),

Beta-binomial tables are anchored at k = 0, where

    BetaBin(0 | n, a, b) = Gamma(a + b) Gamma(b + n) / (Gamma(b) Gamma(a + b + n)),

and swept upward with

    BetaBin(k+1) = BetaBin(k) * (n - k) / (k + 1) * (a + k) / (b + n - k - 1).

Working in log2 space keeps n around several thousand comfortably inside
float range (a literal linear-domain recurrence would start from
(1 - t)**n and underflow long before that).  A table is an array("d")
indexed by the outcome k, holding log2 probabilities; structurally
impossible outcomes hold -inf.

The decoder must rebuild every table bit for bit, so the sweeps use only
float64 arithmetic and libm through math, adding the anchor to the
left-to-right prefix sums of the per-step terms.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from itertools import accumulate

LN2 = math.log(2.0)

Rational = Fraction | float | int


def _point_mass(n: int, k: int) -> array:
    table = array("d", [-math.inf]) * (n + 1)
    table[k] = 0.0
    return table


def _log2_choose(n: int, k: int) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / LN2


def binomial_log2pmf_table(n: int, theta: Rational) -> array:
    """log2 Binomial(k | n, theta) for k = 0..n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    t = float(theta)
    if not 0.0 <= t <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if t == 0.0:
        return _point_mass(n, 0)
    if t == 1.0:
        return _point_mass(n, n)
    lt = math.log2(t)
    lu = math.log2(1.0 - t)
    mode = min(n, int((n + 1) * t))
    anchor = _log2_choose(n, mode) + mode * lt + (n - mode) * lu
    up = accumulate(
        math.log2(n - k + 1.0) - math.log2(k) + (lt - lu) for k in range(mode + 1, n + 1)
    )
    down = accumulate(
        math.log2(k + 1.0) - math.log2(n - k) + (lu - lt) for k in range(mode - 1, -1, -1)
    )
    lower = [anchor + s for s in down]
    return array("d", [*reversed(lower), anchor, *(anchor + s for s in up)])


def betabin_log2pmf_table(n: int, alpha: Rational, beta: Rational) -> array:
    """log2 BetaBin(k | n, alpha, beta) for k = 0..n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a = float(alpha)
    b = float(beta)
    if a <= 0.0 or b <= 0.0:
        raise ValueError("alpha and beta must be positive")
    anchor = (
        math.lgamma(a + b) + math.lgamma(b + n) - math.lgamma(b) - math.lgamma(a + b + n)
    ) / LN2
    if n == 0:
        return array("d", [0.0])
    steps = accumulate(
        math.log2(n - k) - math.log2(k + 1.0)
        + math.log2(a + k) - math.log2(b + n - 1.0 - k)
        for k in range(n)
    )
    return array("d", [anchor, *(anchor + s for s in steps)])


def _xlog2(count: int, p: float) -> float:
    """count * log2(p) with the 0 * log(0) = 0 convention."""
    if count == 0:
        return 0.0
    if p <= 0.0:
        return -math.inf
    return count * math.log2(p)


def trinomial_log2pmf(
    n_t: int, n_0: int, n_1: int, theta_t: Rational, theta_1: Rational
) -> float:
    """log2 Mult(n_t, n_0, n_1 | theta_t, theta_0 (1-theta_t), theta_1 (1-theta_t)).

    theta_0 is 1 - theta_1.  This is the joint law factored by the codecs
    into n_t ~ Binomial(n, theta_t) followed by n_1 ~ Binomial(n - n_t,
    theta_1); the two agree exactly, which the test suite checks.
    """
    if min(n_t, n_0, n_1) < 0:
        raise ValueError("counts must be >= 0")
    n = n_t + n_0 + n_1
    tt = float(theta_t)
    t1 = float(theta_1)
    coef = (
        math.lgamma(n + 1)
        - math.lgamma(n_t + 1)
        - math.lgamma(n_0 + 1)
        - math.lgamma(n_1 + 1)
    ) / LN2
    return (
        coef
        + _xlog2(n_t, tt)
        + _xlog2(n_0, (1.0 - t1) * (1.0 - tt))
        + _xlog2(n_1, t1 * (1.0 - tt))
    )
