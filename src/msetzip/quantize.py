"""Deterministic quantization of pmfs into integer frequency tables.

This module maps a log2-domain pmf onto a table of integer frequencies,
kept as the cumulative counts the range coder reads directly, so that

  * every outcome with nonzero probability gets freq >= 1 (losslessness:
    anything the model allows must stay encodable),
  * outcomes with exactly zero probability get freq 0,
  * total <= TOTAL_MAX, and
  * -log2(freq/total) + log2 p(k) <= 0.01 bits whenever p(k) >= 2**-16,
    for supports up to ~5 * 10**4 outcomes.

The redundancy bound dictates the target total.  A symbol at p = 2**-16
scaled to raw count r loses up to -log2(1 - 1/r) bits to the floor, so r
must be >= ~146; with total 2**24 it is 256, leaving room for the
rescale shrinkage caused by tiny entries (at most ~5e4 of them, each
inflated to 1).  Combined worst case: -log2((1 - 5e4/2**24) - 1/256) =
0.00997 bits.

Tables are reduced by their gcd afterwards, which makes small
dyadic-theta binomials exact: Binomial(n <= 23, 1/2) quantizes to
freq_k = C(n, k) over total 2**n, so those nodes code at exactly their
information content.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .distributions import Rational, betabin_log2pmf_table, binomial_log2pmf_table
from .rangecoder import TOTAL_MAX

TOTAL_TARGET = TOTAL_MAX  # 1 << 24


@dataclass(frozen=True)
class QuantizedPmf:
    """Integer frequency table over outcomes 0..len(cum)-2.

    cum[k] holds the cumulative frequency below k, so outcome k owns the
    slice [cum[k], cum[k + 1]) of [0, total); the range coder reads cum
    directly.  cum is an array.array: indexing it and bisecting it cost a
    fraction of what numpy's per-call overhead does, at the same 8 bytes
    an entry.
    """

    cum: array

    @property
    def total(self) -> int:
        return self.cum[-1]

    @property
    def freqs(self) -> np.ndarray:
        return np.diff(self.cum)

    def log2prob(self, k: int) -> float:
        f = self.cum[k + 1] - self.cum[k]
        if f == 0:
            return -math.inf
        return math.log2(f) - math.log2(self.total)


def quantize(log2pmf: np.ndarray, total_target: int = TOTAL_TARGET) -> QuantizedPmf:
    """Quantize a log2 pmf to integer frequencies summing to ~total_target.

    Deterministic: floor plus largest-remainder top-up with ties broken
    by outcome index.  Raises ValueError if the support alone exceeds
    total_target (every live outcome needs a count of 1).
    """
    log2pmf = np.asarray(log2pmf, dtype=np.float64)
    n = len(log2pmf)
    if n == 0:
        raise ValueError("empty pmf")
    if not 1 <= total_target <= TOTAL_MAX:
        raise ValueError("total_target out of range")
    live = log2pmf > -np.inf
    n_live = int(live.sum())
    if n_live == 0:
        raise ValueError("pmf has empty support")
    if n_live > total_target:
        raise ValueError(f"support {n_live} exceeds total budget {total_target}")

    raw = np.exp2(log2pmf, where=live, out=np.zeros(n)) * total_target
    tiny = live & (raw < 1.0)
    big = live & ~tiny
    n_tiny = int(tiny.sum())

    freqs = np.zeros(n, dtype=np.int64)
    freqs[tiny] = 1

    if big.any():
        budget = max(total_target - n_tiny, int(big.sum()))
        raw_big = raw[big]
        scaled = raw_big * (budget / raw_big.sum())
        base = np.floor(scaled).astype(np.int64)
        rem = scaled - base
        # A big entry can floor to zero after rescaling; lift it to 1
        # and take the unit from the current largest entry.
        for i in np.nonzero(base == 0)[0]:
            base[i] = 1
            j = int(np.argmax(base))
            if base[j] > 1:
                base[j] -= 1
        deficit = budget - int(base.sum())
        if deficit > 0:
            order = np.argsort(-rem, kind="stable")
            base[order[:deficit]] += 1
        elif deficit < 0:
            order = np.argsort(-base, kind="stable")
            for i in order:
                if deficit == 0:
                    break
                take = min(int(base[i]) - 1, -deficit)
                base[i] -= take
                deficit += take
        freqs[big] = base

    assert 1 <= int(freqs.sum()) <= TOTAL_MAX
    freqs //= np.gcd.reduce(freqs[freqs > 0])
    return QuantizedPmf(array("q", accumulate(freqs.tolist(), initial=0)))


# Table construction dominates codec time on trees full of small-count
# nodes, and identical (n, params) pairs recur constantly along trie
# chains, so cache the quantized tables.  Keys hash by value; Fraction
# and float params that compare equal share an entry, which is fine
# because they produce the same table.


@lru_cache(maxsize=1024)
def quantized_binomial(n: int, theta: Rational) -> QuantizedPmf:
    return quantize(binomial_log2pmf_table(n, theta))


@lru_cache(maxsize=1024)
def quantized_betabin(n: int, alpha: Rational, beta: Rational) -> QuantizedPmf:
    return quantize(betabin_log2pmf_table(n, alpha, beta))
