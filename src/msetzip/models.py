"""Length models and end-of-string detectors for the variable-length regimes.

A LengthModel is a distribution over member lengths (k >= 0), which the
general-regime codec reads through three methods:

    hazard(d) -> Fraction
    same_hazard_until(d) -> Optional[int]
    max_length() -> Optional[int]

hazard(d) is the termination hazard

    theta_T(d) = L(d) / (1 - sum_{k<d} L(k)),

the probability that a member known to have length >= d has length
exactly d, in exact rational arithmetic, so that it is exactly 1 at the
longest length (and the coder's tables degenerate to zero-cost point
masses there) rather than 1 - epsilon; it raises ValueError at a depth
past every length, where the residual mass is 0.  The hazard is also the
support test: up to the model's maximum length, a length d is possible
exactly where theta_T(d) > 0.  same_hazard_until(d) is the first depth
after d whose hazard may differ from d's, or None if no later depth's
does, so the codec looks up one termination table per such stretch of
depths, not one per depth.  GeometricLength's hazard is p at every depth
from 1, and PointLength's and UniformLength's are 0 at every depth below
the shortest length.  The shipped models also give pmf and cdf_below,
which the codec never calls.

An EndDetector is the self-delimiting regime's pure predicate on
prefixes, with two methods.  is_complete(prefix) is asked by the decoder
about each prefix, a bytearray of 0/1 values.  first_complete(value,
nbits) answers for a whole member at once, and the member check before
encoding asks it once per distinct member.  A detector must be
prefix-free: once a prefix tests complete, no extension of it may ever be
a member.

The codec binds each method once per call, so a model or detector that
lacks one fails with an AttributeError naming it before anything is
coded.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Protocol, Sequence, runtime_checkable

from ._frozen import Frozen


@runtime_checkable
class LengthModel(Protocol):
    def hazard(self, d: int) -> Fraction:
        """theta_T(d); ValueError where no mass is left at depths >= d."""
        ...

    def same_hazard_until(self, d: int) -> Optional[int]:
        """The first depth after d whose hazard may differ from d's, None
        if no later depth's does."""
        ...

    def max_length(self) -> Optional[int]:
        """Largest length with nonzero mass, None if unbounded."""
        ...


class PointLength(Frozen):
    """All members have length exactly L."""

    __slots__ = ("length",)

    def __init__(self, length: int):
        if length < 0:
            raise ValueError("length must be >= 0")
        self._set(length)

    def pmf(self, k: int) -> Fraction:
        return Fraction(1) if k == self.length else Fraction(0)

    def cdf_below(self, d: int) -> Fraction:
        return Fraction(1) if d > self.length else Fraction(0)

    def max_length(self) -> Optional[int]:
        return self.length

    def hazard(self, d: int) -> Fraction:
        if d > self.length:
            raise ValueError(f"length model has no mass at depth >= {d}")
        return Fraction(1) if d == self.length else Fraction(0)

    def same_hazard_until(self, d: int) -> Optional[int]:
        return self.length if d < self.length else d + 1


class UniformLength(Frozen):
    """Lengths uniform on lo..hi inclusive."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if not 0 <= lo <= hi:
            raise ValueError("need 0 <= lo <= hi")
        self._set(lo, hi)

    def pmf(self, k: int) -> Fraction:
        if self.lo <= k <= self.hi:
            return Fraction(1, self.hi - self.lo + 1)
        return Fraction(0)

    def cdf_below(self, d: int) -> Fraction:
        covered = min(max(d - self.lo, 0), self.hi - self.lo + 1)
        return Fraction(covered, self.hi - self.lo + 1)

    def max_length(self) -> Optional[int]:
        return self.hi

    def hazard(self, d: int) -> Fraction:
        # one of the hi - d + 1 lengths still possible, each as likely
        if d < self.lo:
            return Fraction(0)
        if d > self.hi:
            raise ValueError(f"length model has no mass at depth >= {d}")
        return Fraction(1, self.hi - d + 1)

    def same_hazard_until(self, d: int) -> Optional[int]:
        return self.lo if d < self.lo else d + 1


class GeometricLength(Frozen):
    """L(k) = (1-p)^(k-1) p for k >= 1; constant hazard p past depth 0."""

    __slots__ = ("p",)

    def __init__(self, p: Fraction):
        if not 0 < p <= 1:
            raise ValueError("p must lie in (0, 1]")
        self._set(p)

    def pmf(self, k: int) -> Fraction:
        if k < 1:
            return Fraction(0)
        return (1 - self.p) ** (k - 1) * self.p

    def cdf_below(self, d: int) -> Fraction:
        if d <= 1:
            return Fraction(0)
        return 1 - (1 - self.p) ** (d - 1)

    def hazard(self, d: int) -> Fraction:
        # memoryless: p at every depth from 1, where pmf / (1 - cdf_below)
        # builds rationals whose size grows linearly with depth
        if d < 1:
            return Fraction(0)
        if self.p == 1 and d > 1:
            raise ValueError(f"length model has no mass at depth >= {d}")
        return self.p

    def same_hazard_until(self, d: int) -> Optional[int]:
        if d < 1:
            return 1
        # past depth 1 a degenerate p == 1 has no hazard to share
        return None if self.p < 1 else d + 1

    def max_length(self) -> Optional[int]:
        return None if self.p < 1 else 1


@runtime_checkable
class EndDetector(Protocol):
    def is_complete(self, prefix: Sequence[int]) -> bool:
        """Whether prefix, a bytearray of 0/1 values, ends a member.  The
        codec may change the bytearray after the call returns."""
        ...

    def first_complete(self, value: int, nbits: int) -> Optional[int]:
        """The length of the shortest prefix of the nbits-bit member value
        (its first bit on top) for which is_complete holds, None if none
        does."""
        ...


class FibTerminatorDetector(Frozen):
    """Complete when the prefix ends in the Fibonacci-code terminator 11.

    Valid Fibonacci codewords contain no interior 11 (Zeckendorf digits
    never have two consecutive ones), so a multiset of codewords is
    prefix-free under this detector.
    """

    __slots__ = ()

    def is_complete(self, prefix: Sequence[int]) -> bool:
        return len(prefix) >= 2 and prefix[-1] == 1 and prefix[-2] == 1

    def first_complete(self, value: int, nbits: int) -> Optional[int]:
        # bit i of pairs is set where bits i and i + 1 of value both are;
        # the highest such pair ends the shortest complete prefix
        pairs = value & (value >> 1)
        return nbits + 1 - pairs.bit_length() if pairs else None


class FixedLengthDetector(Frozen):
    """Complete at exactly `length` bits; the degenerate prefix-free family."""

    __slots__ = ("length",)

    def __init__(self, length: int):
        if length < 1:
            raise ValueError("length must be >= 1")
        self._set(length)

    def is_complete(self, prefix: Sequence[int]) -> bool:
        return len(prefix) == self.length

    def first_complete(self, value: int, nbits: int) -> Optional[int]:
        return self.length if self.length <= nbits else None
