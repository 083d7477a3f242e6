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
(1 - t)**n and underflow long before that).  All tables are ordinary
float64 numpy arrays indexed by the outcome k, holding log2
probabilities; structurally impossible outcomes hold -inf.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

LN2 = math.log(2.0)

Rational = Fraction | float | int


def _as_float(x: Rational) -> float:
    return float(x)


def _point_mass(n: int, k: int) -> np.ndarray:
    table = np.full(n + 1, -np.inf)
    table[k] = 0.0
    return table


def _log2_choose(n: int, k: int) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / LN2


def binomial_log2pmf_table(n: int, theta: Rational) -> np.ndarray:
    """log2 Binomial(k | n, theta) for k = 0..n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    t = _as_float(theta)
    if not 0.0 <= t <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if t == 0.0:
        return _point_mass(n, 0)
    if t == 1.0:
        return _point_mass(n, n)
    if n == 0:
        return np.zeros(1)
    lt = math.log2(t)
    lu = math.log2(1.0 - t)
    mode = min(n, int((n + 1) * t))
    anchor = _log2_choose(n, mode) + mode * lt + (n - mode) * lu
    table = np.empty(n + 1)
    table[mode] = anchor
    if mode < n:
        ks = np.arange(mode + 1, n + 1, dtype=np.float64)
        steps = np.log2(n - ks + 1.0) - np.log2(ks) + (lt - lu)
        table[mode + 1 :] = anchor + np.cumsum(steps)
    if mode > 0:
        ks = np.arange(mode - 1, -1, -1, dtype=np.float64)
        steps = np.log2(ks + 1.0) - np.log2(n - ks) + (lu - lt)
        table[mode - 1 :: -1] = anchor + np.cumsum(steps)
    return table


def betabin_log2pmf_table(n: int, alpha: Rational, beta: Rational) -> np.ndarray:
    """log2 BetaBin(k | n, alpha, beta) for k = 0..n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a = _as_float(alpha)
    b = _as_float(beta)
    if a <= 0.0 or b <= 0.0:
        raise ValueError("alpha and beta must be positive")
    anchor = (
        math.lgamma(a + b) + math.lgamma(b + n) - math.lgamma(b) - math.lgamma(a + b + n)
    ) / LN2
    if n == 0:
        return np.zeros(1)
    ks = np.arange(0, n, dtype=np.float64)
    steps = (
        np.log2(n - ks)
        - np.log2(ks + 1.0)
        + np.log2(a + ks)
        - np.log2(b + n - 1.0 - ks)
    )
    table = np.empty(n + 1)
    table[0] = anchor
    table[1:] = anchor + np.cumsum(steps)
    return table


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
    tt = _as_float(theta_t)
    t1 = _as_float(theta_1)
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
