"""Deterministic quantization of pmfs into integer frequency tables.

This module maps a log2-domain pmf onto a table of integer frequencies.
A table is the array("q") cum of their cumulative counts, which the range
coder reads directly: outcome k owns the slice [cum[k], cum[k + 1]) of
[0, total), total = cum[-1].  It is built so that

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
from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate

from .distributions import betabin_log2pmf_table, binomial_log2pmf_table
from .rangecoder import TOTAL_MAX


def quantize(log2pmf: Sequence[float]) -> array:
    """Quantize a log2 pmf to integer frequencies summing to at most
    TOTAL_MAX, returned as their cumulative counts.

    Deterministic: floor plus largest-remainder top-up with ties broken
    by outcome index.  Raises ValueError if the support alone exceeds
    TOTAL_MAX (every live outcome needs a count of 1).
    """
    n = len(log2pmf)
    if n == 0:
        raise ValueError("empty pmf")
    n_live = n - log2pmf.count(-math.inf)
    if n_live == 0:
        raise ValueError("pmf has empty support")
    if n_live > TOTAL_MAX:
        raise ValueError(f"support {n_live} exceeds total budget {TOTAL_MAX}")

    # A live outcome whose raw frequency is below 1 ("tiny") gets exactly
    # 1; the others ("big") share what is left of the budget.
    raw = [math.exp2(lp) * TOTAL_MAX for lp in log2pmf]
    freqs = [int(lp > -math.inf) for lp in log2pmf]
    big = [k for k, r in enumerate(raw) if r >= 1.0]

    if big:
        budget = TOTAL_MAX - (n_live - len(big))  # >= len(big), as n_live <= TOTAL_MAX
        # fsum rounds correctly, so the factor is the same on every Python
        # (from 3.12 on, sum() compensates its float additions)
        factor = budget / math.fsum(raw[k] for k in big)
        scaled = [raw[k] * factor for k in big]
        base = [math.floor(x) for x in scaled]
        rem = [x - b for x, b in zip(scaled, base)]
        # A big entry can floor to zero after rescaling; lift it to 1
        # and take the unit from the current largest entry.
        for i in [i for i, b in enumerate(base) if b == 0]:
            base[i] = 1
            j = base.index(max(base))
            if base[j] > 1:
                base[j] -= 1
        # The deficit is never negative.  The scaled values sum to
        # budget * (1 + O(n * 2**-53)), less than budget + 1 for budget <=
        # 2**24, so their floors sum to at most the budget.  A lift moves
        # one unit, or, where no entry is left above 1, leaves a sum of at
        # most len(big) <= budget.
        deficit = budget - sum(base)
        if deficit:
            for i in sorted(range(len(base)), key=rem.__getitem__, reverse=True)[:deficit]:
                base[i] += 1
        for k, b in zip(big, base):
            freqs[k] = b

    assert 1 <= sum(freqs) <= TOTAL_MAX
    g = math.gcd(*freqs)
    return array("q", accumulate((f // g for f in freqs), initial=0))


# Table construction dominates codec time on trees full of small-count
# nodes, and identical (n, params) pairs recur constantly along trie
# chains, so cache the quantized tables.  Each parameter is keyed by its
# exact ratio num, den, the as_integer_ratio() of a Fraction, float or int,
# so no key builds, hashes or compares a Fraction.  The table is built from
# num / den, int true division, which rounds correctly: it is
# float(Fraction(num, den)), and a float parameter's own value, the one
# float the log2-pmf builders read.  Both codecs reach these through
# per-call caches keyed by ints (treecodec by count and, for a termination
# table, its hazard's exact ratio; dirmult by count and slot width).

# Entries each per-call cache keeps: bounded, so neither a deep chain's
# distinct counts (~N^2/2 table entries in all) nor a long member's depths
# nor a crafted decode's O(N log K) halving nodes stay alive at once.
TABLES_PER_CALL = 1024


@lru_cache(maxsize=1024)
def quantized_binomial(n: int, num: int, den: int) -> array:
    """Binomial(n, num/den)."""
    return quantize(binomial_log2pmf_table(n, num / den))


@lru_cache(maxsize=1024)
def quantized_betabin(n: int, a: int, ad: int, b: int, bd: int) -> array:
    """BetaBin(n, a/ad, b/bd)."""
    return quantize(betabin_log2pmf_table(n, a / ad, b / bd))
