"""Dirichlet-multinomial direct code over a bounded integer alphabet.

A multiset of integers from 1..K is just its count vector (m_1..m_K),
coded under a symmetric Dirichlet(alpha) prior by halving the alphabet.
A node covers slots lo..hi-1 and holds n members.  Unless n = 0 or it
has one slot (its count is then known), it codes how many members lie
in its left half, mid = (lo + hi) // 2,

    n_left ~ BetaBin(n, (mid - lo) alpha, (hi - mid) alpha),

and then each half, left before right.  By the aggregation property of
the Dirichlet (the Polya-tree construction of Ferguson 1974 and Lavine
1992) these pmfs multiply out to exactly the Dirichlet-multinomial law
over count vectors, so this is a direct code for the multiset.  It codes
at most N ceil(log2 K) counts however large K is; at K = 2 it is the
single draw BetaBin(N, alpha, alpha).

Within one call alpha is fixed and mid - lo = (hi - lo) // 2, so a
node's table depends only on its count n and its width hi - lo.  The
walk caches tables under those two ints for the call, at most
TABLES_PER_CALL of them.  Alpha's exact ratio num/den is taken once per
call, and a miss keys the module cache by the ints (half num, den,
(width - half) num, den), so no Fraction is built or hashed.

The walk follows each node's left half without the stack, down to one
slot, and pushes the right half only if it holds members, so no empty
node is ever popped.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from ._frozen import Frozen
from .distributions import LN2
from .quantize import TABLES_PER_CALL, quantized_betabin
from .rangecoder import RangeDecoder, RangeEncoder

DEFAULT_ALPHA = Fraction(1, 2)


class IntMultiset(Frozen):
    """Counts over the alphabet 1..k; counts[i] is the multiplicity of i+1."""

    __slots__ = ("k", "counts")

    def __init__(self, k: int, counts: tuple):
        if k < 1:
            raise ValueError("alphabet bound k must be >= 1")
        if len(counts) != k:
            raise ValueError("counts must have exactly k entries")
        if min(counts) < 0:
            raise ValueError("counts must be >= 0")
        self._set(k, tuple(counts))  # a frozen value, hashable, even from a list

    @classmethod
    def from_values(cls, values, k: int) -> "IntMultiset":
        counts = [0] * k
        for v in values:
            if not 1 <= v <= k:
                raise ValueError(f"value {v} outside alphabet 1..{k}")
            counts[v - 1] += 1
        return cls(k=k, counts=counts)

    @property
    def n(self) -> int:
        return sum(self.counts)


def _walk(k: int, n: int, alpha: Fraction, below=None):
    """Walk the halving tree of slots 0..k-1 holding n members in
    pre-order, left half first, as the range coder's decision stream.
    Every node with members and more than one slot codes the count in
    its left half.  Given below, the counts' prefix sums, the walk
    yields (table, count) for RangeEncoder.encode_intervals; without it,
    it yields the table and receives the count, as RangeDecoder.decode_walk
    runs it.  Returns the count vector."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    num, den = alpha.as_integer_ratio()

    @lru_cache(maxsize=TABLES_PER_CALL)
    def table(n: int, width: int):
        half = width // 2
        return quantized_betabin(n, half * num, den, (width - half) * num, den)

    counts = [0] * k
    stack = [(0, k, n)] if n else []
    while stack:
        lo, hi, n = stack.pop()
        while hi - lo > 1:
            mid = (lo + hi) // 2
            cum = table(n, hi - lo)
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


def encode_dirmult(ms: IntMultiset, enc: RangeEncoder, alpha: Fraction = DEFAULT_ALPHA) -> None:
    """Code the count vector; N and K themselves are framing, not coded here."""
    below = list(accumulate(ms.counts, initial=0))  # below[i]: members in slots 0..i-1
    enc.encode_intervals(_walk(ms.k, ms.n, alpha, below))


def decode_dirmult(
    k: int, n: int, dec: RangeDecoder, alpha: Fraction = DEFAULT_ALPHA
) -> IntMultiset:
    return IntMultiset(k=k, counts=tuple(dec.decode_walk(_walk(k, n, alpha))))


def ideal_codelength_dirmult(ms: IntMultiset, alpha: Fraction = DEFAULT_ALPHA) -> float:
    """-log2 DirMult(counts | N, alpha) by the closed-form Gamma ratio.

    Equal (exactly, not just asymptotically) to the sum of the halving
    tree's per-node Beta-binomial codelengths; the test suite checks the
    two against each other.
    """
    a = float(alpha)
    n = ms.n
    k = ms.k
    log2p = (
        math.lgamma(n + 1)
        + math.lgamma(k * a)
        - math.lgamma(n + k * a)
        - k * math.lgamma(a)
    ) / LN2
    for m in ms.counts:
        log2p += (math.lgamma(m + a) - math.lgamma(m + 1)) / LN2
    return -log2p
