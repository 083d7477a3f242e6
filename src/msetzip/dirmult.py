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
slot or one member, and pushes the right half only if it holds members,
so no empty node is ever popped.  Below a node of one member every count
is 0 or 1, so the walk yields one descent, (table, lo, hi), in place of a
two-outcome table per level: the range coder halves [lo, hi) down to the
member's slot itself, coding at each level the outcome of table(1,
hi - lo), 1 for the left half, exactly as that level's decision would.
The encoder finds the slot by one bisection of the counts' prefix sums.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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
        # one pass in C: a sum of ints is an int, and a float, a Fraction
        # or a Decimal anywhere makes it one of those
        if not isinstance(sum(counts), int):
            raise ValueError("counts must be integers")
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


def _walk(k: int, n: int, num: int, den: int, below=None):
    """Walk the halving tree of slots 0..k-1 holding n members in
    pre-order, left half first, as the range coder's decision stream, at
    alpha = num / den.  Every node with members and more than one slot
    codes the count in its left half, and a node with one member codes
    its slot as a descent.  Given below, the counts' prefix sums, the walk
    yields (table, count) and ((table, lo, hi), slot) for
    RangeEncoder.encode_intervals; without it, it yields the table or
    (table, lo, hi) and receives the count or the slot, as
    RangeDecoder.decode_walk runs it.  Returns the count vector."""

    @lru_cache(maxsize=TABLES_PER_CALL)
    def table(n: int, width: int):
        half = width // 2
        return quantized_betabin(n, half * num, den, (width - half) * num, den)

    counts = [0] * k
    stack = [(0, k, n)] if n else []
    while stack:
        lo, hi, n = stack.pop()
        while n > 1 and hi - lo > 1:
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
            if hi - lo > 1:
                # one member: the coder halves [lo, hi) down to its slot
                if below is None:
                    lo = yield table, lo, hi
                else:
                    slot = bisect_right(below, below[lo], lo, hi) - 1
                    yield (table, lo, hi), slot
                    lo = slot
            counts[lo] = n
    return counts


def _ratio(alpha) -> tuple[int, int]:
    """alpha's exact ratio, or ValueError unless alpha > 0."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return alpha.as_integer_ratio()


def encode_dirmult(ms: IntMultiset, enc: RangeEncoder, alpha: Fraction = DEFAULT_ALPHA) -> None:
    """Code the count vector; N and K themselves are framing, not coded here."""
    num, den = _ratio(alpha)
    below = list(accumulate(ms.counts, initial=0))  # below[i]: members in slots 0..i-1
    enc.encode_intervals(_walk(ms.k, below[-1], num, den, below))


def decode_dirmult(
    k: int, n: int, dec: RangeDecoder, alpha: Fraction = DEFAULT_ALPHA
) -> IntMultiset:
    """The count vector of n members over 1..k that encode_dirmult coded."""
    if k < 1:
        raise ValueError(f"alphabet bound k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"member count n must be >= 0, got {n}")
    num, den = _ratio(alpha)
    return IntMultiset(k=k, counts=tuple(dec.decode_walk(_walk(k, n, num, den))))


def ideal_codelength_dirmult(ms: IntMultiset, alpha: Fraction = DEFAULT_ALPHA) -> float:
    """-log2 DirMult(counts | N, alpha) by the closed-form Gamma ratio.

    Equal (exactly, not just asymptotically) to the sum of the halving
    tree's per-node Beta-binomial codelengths; the test suite checks the
    two against each other.
    """
    _ratio(alpha)
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
