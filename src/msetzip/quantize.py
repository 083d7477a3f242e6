"""Deterministic quantization of pmfs into integer frequency tables.

The range coder consumes integer intervals (cum, freq, total).  This
module maps a log2-domain pmf onto such a table so that

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .distributions import Rational, betabin_log2pmf_table, binomial_log2pmf_table
from .errors import ModelMismatchError
from .rangecoder import TOTAL_MAX, FreqInterval

TOTAL_TARGET = TOTAL_MAX  # 1 << 24


@dataclass(frozen=True)
class QuantizedPmf:
    """Integer frequency table over outcomes 0..len(freqs)-1.

    cum[k] holds the cumulative frequency below k (len(freqs) + 1
    entries), so outcome k owns the slice [cum[k], cum[k] + freqs[k]) of
    [0, total).
    """

    freqs: np.ndarray
    cum: np.ndarray
    total: int

    @property
    def support(self) -> int:
        return len(self.freqs)

    def interval_of(self, k: int) -> FreqInterval:
        if not 0 <= k < len(self.freqs):
            raise ModelMismatchError(f"outcome {k} outside support 0..{len(self.freqs) - 1}")
        f = int(self.freqs[k])
        if f == 0:
            raise ModelMismatchError(f"outcome {k} has zero probability under the model")
        return FreqInterval(int(self.cum[k]), f, self.total)

    def symbol_of(self, target: int) -> int:
        """The outcome owning cumulative position target in [0, total)."""
        # side="right" skips zero-frequency outcomes, whose cum entries
        # collapse onto the next live one.
        k = int(np.searchsorted(self.cum, target, side="right")) - 1
        return k

    def log2prob(self, k: int) -> float:
        f = int(self.freqs[k])
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

    total = int(freqs.sum())
    assert 1 <= total <= TOTAL_MAX
    g = int(np.gcd.reduce(freqs[freqs > 0]))
    if g > 1:
        freqs //= g
        total //= g
    cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(freqs, out=cum[1:])
    return QuantizedPmf(freqs=freqs, cum=cum, total=total)


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
