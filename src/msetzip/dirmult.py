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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .distributions import LN2
from .quantize import QuantizedPmf, decode_outcome, encode_outcome, quantized_betabin
from .rangecoder import RangeDecoder, RangeEncoder

DEFAULT_ALPHA = Fraction(1, 2)


@dataclass(frozen=True)
class IntMultiset:
    """Counts over the alphabet 1..k; counts[i] is the multiplicity of i+1."""

    k: int
    counts: tuple

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("alphabet bound k must be >= 1")
        if len(self.counts) != self.k:
            raise ValueError("counts must have exactly k entries")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be >= 0")

    @classmethod
    def from_values(cls, values, k: int) -> "IntMultiset":
        counts = [0] * k
        for v in values:
            if not 1 <= v <= k:
                raise ValueError(f"value {v} outside alphabet 1..{k}")
            counts[v - 1] += 1
        return cls(k=k, counts=tuple(counts))

    @property
    def n(self) -> int:
        return sum(self.counts)


def _walk(k: int, n: int, alpha: Fraction, step) -> list[int]:
    """Walk the halving tree of slots 0..k-1 holding n members in
    pre-order, left half first.  At every node with members and more
    than one slot, step(lo, mid, table) codes the count in slots
    lo..mid-1 with table and returns it.  Returns the count vector."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    counts = [0] * k
    stack = [(0, k, n)]
    while stack:
        lo, hi, n = stack.pop()
        if hi - lo == 1:
            counts[lo] = n
        elif n:
            mid = (lo + hi) // 2
            left = step(lo, mid, quantized_betabin(n, (mid - lo) * alpha, (hi - mid) * alpha))
            stack.append((mid, hi, n - left))
            stack.append((lo, mid, left))
    return counts


def encode_dirmult(ms: IntMultiset, enc: RangeEncoder, alpha: Fraction = DEFAULT_ALPHA) -> None:
    """Code the count vector; N and K themselves are framing, not coded here."""
    below = list(accumulate(ms.counts, initial=0))  # below[i]: members in slots 0..i-1

    def encode(lo: int, mid: int, table: QuantizedPmf) -> int:
        left = below[mid] - below[lo]
        encode_outcome(enc, table, left)
        return left

    _walk(ms.k, ms.n, alpha, encode)


def decode_dirmult(
    k: int, n: int, dec: RangeDecoder, alpha: Fraction = DEFAULT_ALPHA
) -> IntMultiset:
    counts = _walk(k, n, alpha, lambda lo, mid, table: decode_outcome(dec, table))
    return IntMultiset(k=k, counts=tuple(counts))


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
