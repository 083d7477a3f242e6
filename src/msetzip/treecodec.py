"""Multiset codecs over the sorted members: the trie code without a trie.

The code is that of the multiset's count-annotated binary trie: at every
node short of a complete member it codes how the node's n members divide,
parents before children and child 0 before child 1.  The decoder recovers
each count before it needs it, so both sides always agree on the next
distribution.

No trie is built.  Sorted lexicographically (a prefix before its
extensions), the members below a node are a contiguous range [lo, hi) of
the sorted distinct members.  A node's count is a difference of prefix sums
of their multiplicities.  The node branches where the next bits of its
first and last members differ, and only then are the members whose next
bit is 1 found, where a bisection of the range puts the node's prefix
followed by 1; a node that does not branch passes the whole range on.  A
range of one distinct member, of multiplicity m, never branches again, so
its remaining decisions come straight from the member's bits, read from
the int _sort builds once per distinct member: split(m) with outcome 0 or
m per bit and, in the general regime, one termination count per depth.

One walk, _decisions, yields every decision as (table, outcome) in coding
order, except for the rest of one distinct member of m copies below its
node of depth d, which is one chain item, its remaining count bits as one
int: ((split(m), m, stretch, d, count), bits), a termination count of 0
and a split of 0 or m at each depth, followed in the general regime by
the final termination count m as a decision of its own.  stretch(e, m)
gives the termination table of depth e and the end of its stretch: the
length model's same_hazard_until(e), the depth from which the hazard may
differ from e's.  So a chain looks a table up once per stretch of equal
hazards, not once per depth: at most twice per chain under a geometric
length.  A termination table is keyed by its hazard's exact ratio and
its count, so depths with equal hazards share it, adjacent or not.
Where no termination counts are coded, in the fixed and self-delimiting
regimes, the termination is a point mass in one stretch, which the coder
codes nothing for.

The range coder codes that stream in one call, a chain under a point-mass
termination and the equiprobable split(1) a whole stretch of bytes at a
time, and the ideal codelength sums it over the exact log2 pmf, a chain
one decision at a time.  The decoder runs the walk's mirror, _decode_walk:
it hands each table to the range decoder, takes back the count, and
follows a node's path, a bytearray prefix of 0/1 values, without the stack
until it branches, which at n = 1 is the whole rest of a member.  In the
fixed and general regimes the walk offers a chain (split(n), n, stretch,
d, cap - d, prefix) at a node of n = 1 and at each node after a split that
did not branch, but not on entering a node of n > 1, whose first split may
branch at once.  The range decoder takes depths up to the first one whose
termination count is not 0 or whose split is not 0 or n, appends their
bits to prefix and sends back how many it took; the walk then decodes the
next depth one decision at a time, and takes a termination count under a
point mass, which codes nothing, without the range decoder.  A
fixed-length member is complete when its path reaches depth L.  The
self-delimiting regime decodes a node of n > 1 one decision at a time, its
detector asked at each depth.  At a node of n = 1 it hands the range
decoder the rest of the member as one tail (split(1), prefix, is_complete,
cap - d + 1): the range decoder appends each depth's bit to prefix, asks
the detector after each, and sends back the depths it took, up to the
first complete prefix or past the depth cap.  A split(1) whose outcome 1
has no mass decodes one decision at a time.  Every distinct member is
checked against the regime before the first symbol is coded.

Each call reads its CodecParams once, into one _Call object: the
family's tables behind per-call caches, the depth cap, the member check,
and where the regime ends members.  The regime decides only that:

  * fixed(L): every member has length exactly L.  Depth-L nodes are
    complete; every other node codes n1 given n (n0 = n - n1 is
    implied).  Depth cap L.
  * self-delimiting(detector): as fixed, except a node is complete where
    the detector declares its prefix complete.  No termination counts
    are coded; the detector carries all length information.
  * general(length_model): no node is complete.  Every node of depth d
    first codes its termination count n_T ~ Binomial(n, theta_T(d)),
    theta_T being the length model's hazard, then splits the other
    n - n_T members as in fixed mode.  Depth cap the model's maximum
    length, if it has one.

The depth cap is DECODE_DEPTH_CAP unless stated.  Validation refuses a
deeper member before anything is coded and the decoder will not descend
past it, so compress never writes a container that decompress refuses.

Families supply the per-node count distribution: Binomial(n, theta)
with known bias, or Beta-binomial(n, alpha, beta) when the bias is
unknown.  Beta-binomial state is fresh at every node (nothing adapts
across nodes).  Under the beta-binomial family the general regime's
termination count is also coded Beta-binomially -- the termination rate
is then treated as unknown too, and the length model is used only to
validate members, not to code.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import lru_cache
from fractions import Fraction
from itertools import accumulate, repeat
from operator import itemgetter
from typing import Callable, Iterable, Optional, Union

from ._frozen import Frozen
from .bits import BitString, as_bitstring, marked_bits
from .distributions import betabin_log2pmf_table, binomial_log2pmf_table
from .errors import CorruptStreamError, ModelMismatchError
from .models import EndDetector, LengthModel
from .quantize import TABLES_PER_CALL, quantized_betabin, quantized_binomial
from .rangecoder import RangeDecoder, RangeEncoder

# Bound on member length in the two unbounded regimes: a corrupted
# payload must not walk forever (a truncated stream reads as endless
# zero bytes, which keep every member alive almost for free).  64k-bit
# members sit far past this library's domain of short sequences, and
# hitting the cap costs well under a second.
DECODE_DEPTH_CAP = 1 << 16


class BinomialFamily(Frozen):
    __slots__ = ("theta",)

    def __init__(self, theta: Fraction = Fraction(1, 2)):
        if not 0 <= theta <= 1:
            raise ValueError("theta must lie in [0, 1]")
        self._set(theta)

    def split_table(self, n: int) -> array:
        return quantized_binomial(n, *self.theta.as_integer_ratio())

    def termination_table(self, n: int, num: int, den: int) -> array:
        return quantized_binomial(n, num, den)

    def split_log2pmf(self, n: int) -> array:
        return binomial_log2pmf_table(n, self.theta)

    def termination_log2pmf(self, n: int, num: int, den: int) -> array:
        return binomial_log2pmf_table(n, num / den)


class BetaBinomialFamily(Frozen):
    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: Fraction = Fraction(1, 2), beta: Fraction = Fraction(1, 2)):
        # the container holds each as a u32/u32 ratio, and far beyond that
        # the float pmf sweep no longer sums to 1
        if not (0 < alpha < 2**32 and 0 < beta < 2**32):
            raise ValueError("alpha and beta must be positive and finite, below 2**32")
        self._set(alpha, beta)

    def split_table(self, n: int) -> array:
        return quantized_betabin(n, *self.alpha.as_integer_ratio(), *self.beta.as_integer_ratio())

    def termination_table(self, n: int, num: int, den: int) -> array:
        # the hazard num/den intentionally unused: the termination rate is
        # coded as unknown, same prior as the splits.
        return quantized_betabin(n, *self.alpha.as_integer_ratio(), *self.beta.as_integer_ratio())

    def split_log2pmf(self, n: int) -> array:
        return betabin_log2pmf_table(n, self.alpha, self.beta)

    def termination_log2pmf(self, n: int, num: int, den: int) -> array:
        return betabin_log2pmf_table(n, self.alpha, self.beta)


Family = Union[BinomialFamily, BetaBinomialFamily]


class FixedRegime(Frozen):
    __slots__ = ("length",)

    def __init__(self, length: int):
        if length < 1:
            raise ValueError("fixed-mode length must be >= 1")
        self._set(length)


class SelfDelimitingRegime(Frozen):
    __slots__ = ("detector",)

    def __init__(self, detector: EndDetector):
        self._set(detector)


class GeneralRegime(Frozen):
    __slots__ = ("length_model",)

    def __init__(self, length_model: LengthModel):
        self._set(length_model)


Regime = Union[FixedRegime, SelfDelimitingRegime, GeneralRegime]

# check(values, lengths) raises ModelMismatchError unless the regime can
# code every member of a lexicographically sorted list of distinct members,
# given as their bits as ints, first bit on top, and their bit lengths.
MemberCheck = Callable[[list, list], None]


class CodecParams(Frozen):
    __slots__ = ("regime", "family")

    def __init__(self, regime: Regime, family: Family = BinomialFamily()):
        self._set(regime, family)


def hazard(theta_t: Callable[[int], Fraction], d: int) -> Fraction:
    """theta_t(d), a length model's bound hazard method at depth d.  Every
    hazard the codec computes is computed here, the one name that the
    benchmark's tracer (perfbench/tracer.py) wraps to count and time them."""
    return theta_t(d)


# The termination of a chain where no termination counts are coded: a
# point mass on outcome 0 in one stretch of every depth.  (0, 1) is that
# table's cumulative counts, total 1, so the coder codes nothing for it,
# and its entry 0 is that outcome's log2 pmf, 0, for ideal_codelength.
_POINT_MASS = (0, 1), None


class _Call:
    """Everything one codec call reads from its CodecParams, resolved once.
    Each protocol method is bound here, so a regime whose model or detector
    lacks one fails with an AttributeError naming it before anything is
    coded.  DECODE_DEPTH_CAP is read here, so lowering it takes effect at
    the next call.

    end is the depth at which every member ends, the fixed regime's length,
    else None.  complete is the self-delimiting regime's detector's
    is_complete, else None: the fixed regime ends members by depth alone and
    the general regime never ends one early.  cap is the depth cap and check
    the member check.  possible(d), in the fixed and general regimes, is
    whether a member can have length d, for d at most the cap; the general
    regime's asks whether d's hazard, in [0, 1], is not 0, which decides
    the model's support without its pmf.  The self-delimiting regime's
    check asks the detector's first_complete once per distinct member.

    The tables are the family's coding tables, or with log2pmf the exact
    log2 pmfs that ideal_codelength sums.  split(n) is the split table of n
    members.  termination(d, n) is the termination table of depth d, for a
    single decision, and None where no termination counts are coded.
    stretch(d, n), for a chain, is (table, end), that table and the end of
    its stretch, the length model's same_hazard_until(d): the depth from
    which the hazard may differ from d's, or None.  Every depth in [d, end)
    takes the same table, so a chain looks one up only at the depths where
    a stretch starts; where no termination counts are coded, stretch gives
    the point mass.  A termination table is keyed by n and its hazard's
    exact ratio, as_integer_ratio(): two ints whatever the hazard's type,
    which the family is handed as (n, num, den).  So depths with equal
    hazards share a table, adjacent or not, and no Fraction is built or
    hashed.  Each cache, the hazards' included, keeps at most
    TABLES_PER_CALL entries, which costs a rebuild but no bytes, as a
    table depends on its parameters' values alone."""

    __slots__ = ("end", "complete", "cap", "check", "possible", "split", "termination", "stretch")

    def __init__(self, params: CodecParams, log2pmf: bool = False):
        regime, fam = params.regime, params.family
        split = fam.split_log2pmf if log2pmf else fam.split_table
        self.split = lru_cache(maxsize=TABLES_PER_CALL)(split)
        self.end = self.complete = self.possible = self.termination = None
        self.cap = DECODE_DEPTH_CAP
        self.stretch = lambda d, n: _POINT_MASS
        if isinstance(regime, FixedRegime):
            length = self.end = self.cap = regime.length
            self.possible = lambda d: d == length
            self.check = _lengths(self.possible)
        elif isinstance(regime, SelfDelimitingRegime):
            self.complete = regime.detector.is_complete
            self.check = _ends_complete(regime.detector.first_complete)
        elif isinstance(regime, GeneralRegime):
            model = regime.length_model
            theta_t, until = model.hazard, model.same_hazard_until
            cap = model.max_length()
            if cap is not None:
                self.cap = cap
            ratio = lru_cache(maxsize=TABLES_PER_CALL)(
                lambda d: hazard(theta_t, d).as_integer_ratio()
            )
            termination = fam.termination_log2pmf if log2pmf else fam.termination_table
            shared = lru_cache(maxsize=TABLES_PER_CALL)(termination)
            self.termination = lambda d, n: shared(n, *ratio(d))
            self.stretch = lambda d, n: (shared(n, *ratio(d)), until(d))
            self.possible = lambda d: ratio(d)[0] != 0
            self.check = _lengths(self.possible)
        else:
            raise TypeError(f"unknown regime {regime!r}")


def _lengths(possible: Callable[[int], bool]) -> MemberCheck:
    """The check that every member's length is possible."""

    def check(values: list, lengths: list) -> None:
        for length in sorted(set(lengths)):
            if not possible(length):
                raise ModelMismatchError(f"member of length {length} cannot occur under the regime")

    return check


def _ends_complete(first_complete: Callable[[int, int], Optional[int]]) -> MemberCheck:
    """The check that each member's shortest complete prefix, as the
    detector's first_complete finds it, is the whole member.  That also
    rules out a member that extends another, whose end would be a shorter
    complete prefix of it.  It is one call per distinct member where the
    decoder asks is_complete once per trie node."""

    def check(values: list, lengths: list) -> None:
        firsts = list(map(first_complete, values, lengths))
        if firsts == lengths:
            return
        for first, nbits in zip(firsts, lengths):
            if first != nbits:
                if first is None:
                    raise ModelMismatchError(f"member of {nbits} bits does not end complete")
                raise ModelMismatchError(f"member extends a complete {first}-bit prefix")

    return check


def _sort(members: Iterable, call: _Call) -> tuple:
    """(datas, values, lengths, cum): the distinct members in lexicographic
    order, datas[i] holding member i's bytes, values[i] its bits as an int,
    first bit on top, and lengths[i] its bit length, with cum[i + 1] -
    cum[i] its multiplicity.  Members that are all BitStrings are counted
    by their (data, nbits) in C; any other member sends them all through
    as_bitstring first, which reads text and raises TypeError for anything
    else.  Each member's int is built here once, for the member check and
    for the chain that codes the member's last bits.

    Raises ModelMismatchError unless the call's regime can code every
    distinct member, so before anything is coded."""
    members = list(members)
    if not set(map(type, members)) <= {BitString}:
        members = map(as_bitstring, members)  # text coerced, other types refused
    counts = Counter(map(BitString._astuple, members))
    # (data, nbits) is BitString's order, as pad bits are zero: two stable
    # sorts on one field each give it, cheaper than one sort on the pairs
    distinct = sorted(counts, key=itemgetter(1))
    distinct.sort(key=itemgetter(0))
    lengths = list(map(itemgetter(1), distinct))
    if max(lengths, default=0) > call.cap:
        raise ModelMismatchError(f"member longer than the depth cap of {call.cap} bits")
    datas = list(map(itemgetter(0), distinct))
    values = [int.from_bytes(data) >> (-nbits & 7) for data, nbits in distinct]
    call.check(values, lengths)
    cum = list(accumulate(map(counts.__getitem__, distinct), initial=0))
    return datas, values, lengths, cum


def _decisions(sorted_members: tuple, call: _Call):
    """Yield (table, outcome) for every decision the encoder codes, in
    coding order, from _sort's members and the call's tables.  A trie node
    is a range [lo, hi) of the sorted members at a depth d, and, as in
    _decode_walk, a node's path is followed without the stack until it
    branches.  At a node of two or more distinct members, bit d of the
    first and the last member says whether it branches; only a node that
    does bisects the range for its first member whose bit d is 1, and
    stacks the members from there.  A range of one distinct member, of m
    copies, is coded from the member's bits to its end as one chain
    ((split(m), m, stretch, d, count), bits), bits the member's remaining
    count bits as one int, as RangeEncoder.encode_intervals reads them; in
    the general regime the final termination count m follows it."""
    datas, values, lengths, cum = sorted_members
    split, termination, stretch = call.split, call.termination, call.stretch
    stack = [(0, len(datas), 0)] if datas else []
    while stack:
        lo, hi, d = stack.pop()
        n = cum[hi] - cum[lo]
        while hi - lo > 1:
            if termination is not None:
                n_t = cum[lo + 1] - cum[lo] if lengths[lo] == d else 0  # a prefix sorts first
                yield termination(d, n), n_t
                if n_t:
                    lo += 1
                    n -= n_t
            # a member that ends at d is the node's prefix and sorts first,
            # so both members read here are longer than d; where their bit d
            # differs, the members whose bit d is 1 sort at or after the
            # node's prefix followed by 1, packed into bytes with zero padding
            q, r = d >> 3, d & 7
            head = datas[lo]
            byte = head[q]
            bit = 0x80 >> r
            d += 1
            if (byte ^ datas[hi - 1][q]) & bit:
                mid = bisect_left(datas, head[:q] + bytes(((byte & 0xFF00 >> r) | bit,)), lo, hi)
                yield split(n), cum[hi] - cum[mid]
                stack.append((mid, hi, d))
                hi = mid
                n = cum[mid] - cum[lo]
            else:
                yield split(n), n if byte & bit else 0
        end = lengths[lo]
        if end > d:
            yield (split(n), n, stretch, d, end - d), values[lo] & ((1 << (end - d)) - 1)
        if termination is not None:
            yield termination(end, n), n


def _decode_walk(n_members: int, call: _Call, out: list):
    """The decoder's mirror of _decisions, run by RangeDecoder.decode_walk:
    yield each decision's table, receive its outcome.  Appends the members
    to out in lexicographic order, one BitString per copy.  A node's path is
    followed without the stack until it branches.  In the fixed and general
    regimes the walk offers a chain (split(n), n, stretch, d, cap - d,
    prefix) at a node of n = 1 and at each node after a split that did not
    branch, and receives the c depths the range decoder could take whole,
    their bits appended to prefix; the depth after them goes one decision at
    a time.  A fixed-length member is complete when its path reaches depth
    L, by a chain or by a split.  The self-delimiting regime offers a tail
    (split(1), prefix, complete, cap - d + 1) at a node of n = 1 that is not
    complete, unless outcome 1 of split(1) has no mass, and receives the c
    depths the range decoder took, their bits appended to prefix: the member
    ends at depth d + c unless that passes the cap.  It takes every other
    decision one at a time.  A termination count whose table is a point mass
    codes nothing, so the walk takes that table's one live outcome without
    the range decoder.  The prefix is a bytearray of 0/1 values, which the
    range decoder extends for a chain and a tail alike, and
    BitString.from_bits packs in C."""
    end, complete, cap = call.end, call.complete, call.cap
    split, termination, stretch = call.split, call.termination, call.stretch
    prefix = bytearray()
    stack = [(n_members, 0, 0)]
    while stack:
        n, d, bit = stack.pop()
        if d:
            prefix[d - 1 :] = (bit,)  # the parent's prefix, then this node's bit
        table = None  # fetched when first needed: a complete node codes no split
        chain = n == 1 and complete is None
        while True:
            if d > cap:
                raise CorruptStreamError(f"member longer than the depth cap of {cap} bits")
            if d == end or complete is not None and complete(prefix):
                _copies(out, prefix, n)
                break
            if table is None:
                table = split(n)
                if n == 1 and complete is not None and table[1] != table[2]:
                    # the rest of the member, up to its first complete prefix
                    # or past the depth cap, each depth's bit appended to prefix
                    d += yield table, prefix, complete, cap - d + 1
                    if d > cap:
                        continue
                    _copies(out, prefix, n)
                    break
            if chain:
                # the depths from here whose termination count is 0 and whose
                # members all take one branch, up to the depth cap, their
                # bits appended to prefix
                chain = False
                d += yield table, n, stretch, d, cap - d, prefix
                continue
            if termination is not None:
                term = termination(d, n)
                if term[-1] == 1:  # a point mass codes nothing: its live outcome
                    n_t = bisect_right(term, 0) - 1
                else:
                    n_t = yield term
                    if n_t and not call.possible(d):
                        # reachable only with full-support termination tables on a
                        # corrupt stream; no encoder output decodes to this state
                        raise CorruptStreamError(f"decoded a member of impossible length {d}")
                if n_t:
                    _copies(out, prefix, n_t)
                    n -= n_t
                    if not n:
                        break
                    table = split(n)
            n1 = yield table
            if 0 < n1 < n:
                stack.append((n1, d + 1, 1))
                stack.append((n - n1, d + 1, 0))
                break
            prefix.append(1 if n1 else 0)
            d += 1
            chain = complete is None


def _copies(out: list, prefix: bytearray, n: int) -> None:
    """Append n copies of the member prefix to out, one BitString each."""
    if n == 1:  # the common case, without map and repeat
        out.append(BitString.from_bits(prefix))
    else:
        out.extend(map(BitString.from_bits, repeat(prefix, n)))


def encode_members(members: Iterable, params: CodecParams, enc: RangeEncoder) -> None:
    """Code the multiset's counts.  N itself is the container's job.

    Raises ModelMismatchError before coding anything for a member the
    regime cannot code, and mid-stream for a decision whose outcome the
    family gives zero probability."""
    call = _Call(params)
    enc.encode_intervals(_decisions(_sort(members, call), call))


def decode_members(params: CodecParams, n_members: int, dec: RangeDecoder) -> list[BitString]:
    """The n_members members encode_members coded, in lexicographic order."""
    out: list[BitString] = []
    if n_members:
        dec.decode_walk(_decode_walk(n_members, _Call(params), out))
    return out


def ideal_codelength(members: Iterable, params: CodecParams) -> float:
    """Sum of -log2 pmf over the exact (unquantized) distributions of the
    decisions the encoder codes: the optimality yardstick.  In fixed mode
    with theta = 1/2 it equals N*L - log2(N!/prod m_j!)."""
    call = _Call(params, log2pmf=True)
    total = 0.0
    for table, k in _decisions(_sort(members, call), call):
        if table.__class__ is not tuple:
            total -= table[k]
            continue
        # a chain, summed one decision at a time
        table, n, stretch, d, count = table
        end = d
        for e, bit in enumerate(marked_bits(k | 1 << count), d):
            if e == end:  # a stretch starts: its termination table
                term, end = stretch(e, n)
            total -= term[0]
            total -= table[n if bit else 0]
    return total
