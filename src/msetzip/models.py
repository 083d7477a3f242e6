"""Length models and end-of-string detectors for the variable-length regimes.

A LengthModel is a distribution over member lengths (k >= 0).  The
general-regime codec only consumes it through the termination hazard

    theta_T(d) = L(d) / (1 - sum_{k<d} L(k)),

the probability that a member known to have length >= d has length
exactly d.  Hazards are computed in exact rational arithmetic so that
depths past the model's support give exactly 1 (and the coder's tables
degenerate to zero-cost point masses there) rather than 1 - epsilon.

An EndDetector is the self-delimiting regime's pure predicate on
prefixes.  It must be prefix-free: once a prefix tests complete, no
extension of it may ever be a member.  The codec hands it each prefix as
a bytearray of 0/1 values, alike when it checks members before encoding
and when it decodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Protocol, Sequence, runtime_checkable


@runtime_checkable
class LengthModel(Protocol):
    def pmf(self, k: int) -> Fraction: ...

    def cdf_below(self, d: int) -> Fraction: ...

    def max_length(self) -> Optional[int]:
        """Largest length with nonzero mass, None if unbounded."""
        ...


def hazard(model: LengthModel, d: int) -> Fraction:
    """Termination probability at depth d given survival to depth d."""
    shortcut = getattr(model, "hazard", None)
    if shortcut is not None:
        return shortcut(d)
    residual = 1 - model.cdf_below(d)
    if residual <= 0:
        raise ValueError(f"length model has no mass at depth >= {d}")
    return model.pmf(d) / residual


@dataclass(frozen=True)
class PointLength:
    """All members have length exactly L."""

    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("length must be >= 0")

    def pmf(self, k: int) -> Fraction:
        return Fraction(1) if k == self.length else Fraction(0)

    def cdf_below(self, d: int) -> Fraction:
        return Fraction(1) if d > self.length else Fraction(0)

    def max_length(self) -> Optional[int]:
        return self.length


@dataclass(frozen=True)
class UniformLength:
    """Lengths uniform on lo..hi inclusive."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi:
            raise ValueError("need 0 <= lo <= hi")

    def pmf(self, k: int) -> Fraction:
        if self.lo <= k <= self.hi:
            return Fraction(1, self.hi - self.lo + 1)
        return Fraction(0)

    def cdf_below(self, d: int) -> Fraction:
        covered = min(max(d - self.lo, 0), self.hi - self.lo + 1)
        return Fraction(covered, self.hi - self.lo + 1)

    def max_length(self) -> Optional[int]:
        return self.hi


@dataclass(frozen=True)
class GeometricLength:
    """L(k) = (1-p)^(k-1) p for k >= 1; constant hazard p past depth 0."""

    p: Fraction

    def __post_init__(self) -> None:
        if not 0 < self.p <= 1:
            raise ValueError("p must lie in (0, 1]")

    def pmf(self, k: int) -> Fraction:
        if k < 1:
            return Fraction(0)
        return (1 - self.p) ** (k - 1) * self.p

    def cdf_below(self, d: int) -> Fraction:
        if d <= 1:
            return Fraction(0)
        return 1 - (1 - self.p) ** (d - 1)

    def hazard(self, d: int) -> Fraction:
        # memoryless shortcut; the generic pmf/residual route builds
        # rationals whose size grows linearly with depth
        if d < 1:
            return Fraction(0)
        if self.p == 1 and d > 1:
            raise ValueError(f"length model has no mass at depth >= {d}")
        return self.p

    def max_length(self) -> Optional[int]:
        return None if self.p < 1 else 1


@runtime_checkable
class EndDetector(Protocol):
    def is_complete(self, prefix: Sequence[int]) -> bool:
        """Whether prefix, a bytearray of 0/1 values, ends a member.  The
        codec may change the bytearray after the call returns."""
        ...


@dataclass(frozen=True)
class FibTerminatorDetector:
    """Complete when the prefix ends in the Fibonacci-code terminator 11.

    Valid Fibonacci codewords contain no interior 11 (Zeckendorf digits
    never have two consecutive ones), so a multiset of codewords is
    prefix-free under this detector.
    """

    def is_complete(self, prefix: Sequence[int]) -> bool:
        return len(prefix) >= 2 and prefix[-1] == 1 and prefix[-2] == 1


@dataclass(frozen=True)
class FixedLengthDetector:
    """Complete at exactly `length` bits; the degenerate prefix-free family."""

    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("length must be >= 1")

    def is_complete(self, prefix: Sequence[int]) -> bool:
        return len(prefix) == self.length
