"""Multiset codecs over the sorted members: the trie code without a trie.

The code is that of the multiset's count-annotated binary trie: at every
node short of a complete member it codes how the node's n members divide,
parents before children and child 0 before child 1.  The decoder recovers
each count before it needs it, so both sides always agree on the next
distribution.

No trie is built.  Sorted lexicographically (a prefix before its
extensions), the members below a node are a contiguous range [lo, hi) of
the sorted distinct members.  A node's count is a difference of prefix sums
of their multiplicities, and the members whose next bit is 1 start where a
bisection of the range puts the node's prefix followed by 1.  A range of one
distinct member, of multiplicity m, never branches again, so its remaining
decisions come straight from the member's bits: split(m) with outcome 0 or
m per bit and, in the general regime, one termination count per depth.

One walk, _decisions, yields every decision as (table, outcome) in coding
order, except a run: one copy of one member (m = 1) where no termination
counts are coded, whose remaining decisions under the two-outcome table
split(1) are one item ((table, count), bits), the member's remaining count
bits as one int.  The range coder codes that stream in one call, a run
under the equiprobable split(1) a whole stretch of bytes at a time, and the
ideal codelength sums it over the exact log2 pmf, a run one decision at a
time.  The decoder runs the walk's mirror, _decode_walk: it hands each
table to the range decoder, takes back the count, and follows a chain
without the stack until the chain branches, which at n = 1 is the whole
rest of a member.  In the fixed regime that rest is one run, (table, L - d)
in the table's slot, its bits coming back as one int.  Every distinct member
is checked against the regime before the first symbol is coded.

The regime sets the walk's schedule, resolved once per call:

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
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Optional, Sequence, Union

from .bits import BitString, as_bitstring
from .distributions import betabin_log2pmf_table, binomial_log2pmf_table
from .errors import CorruptStreamError, ModelMismatchError
from .models import EndDetector, LengthModel, hazard
from .quantize import TABLES_PER_CALL, quantized_betabin, quantized_binomial
from .rangecoder import RangeDecoder, RangeEncoder

# Bound on member length in the two unbounded regimes: a corrupted
# payload must not walk forever (a truncated stream reads as endless
# zero bytes, which keep every member alive almost for free).  64k-bit
# members sit far past this library's domain of short sequences, and
# hitting the cap costs well under a second.
DECODE_DEPTH_CAP = 1 << 16

# ASCII '0'/'1' digits to the bit values 0/1
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True)
class BinomialFamily:
    theta: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        if not 0 <= self.theta <= 1:
            raise ValueError("theta must lie in [0, 1]")

    def split_table(self, n: int) -> array:
        return quantized_binomial(n, self.theta)

    def termination_table(self, n: int, theta_t: Fraction) -> array:
        return quantized_binomial(n, theta_t)

    def split_log2pmf(self, n: int) -> array:
        return binomial_log2pmf_table(n, self.theta)

    def termination_log2pmf(self, n: int, theta_t: Fraction) -> array:
        return binomial_log2pmf_table(n, theta_t)


@dataclass(frozen=True)
class BetaBinomialFamily:
    alpha: Fraction = Fraction(1, 2)
    beta: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")

    def split_table(self, n: int) -> array:
        return quantized_betabin(n, self.alpha, self.beta)

    def termination_table(self, n: int, theta_t: Fraction) -> array:
        # theta_t intentionally unused: the termination rate is coded as
        # unknown, same prior as the splits.
        return quantized_betabin(n, self.alpha, self.beta)

    def split_log2pmf(self, n: int) -> array:
        return betabin_log2pmf_table(n, self.alpha, self.beta)

    def termination_log2pmf(self, n: int, theta_t: Fraction) -> array:
        return betabin_log2pmf_table(n, self.alpha, self.beta)


Family = Union[BinomialFamily, BetaBinomialFamily]


@dataclass(frozen=True)
class FixedRegime:
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("fixed-mode length must be >= 1")


@dataclass(frozen=True)
class SelfDelimitingRegime:
    detector: EndDetector


@dataclass(frozen=True)
class GeneralRegime:
    length_model: LengthModel


Regime = Union[FixedRegime, SelfDelimitingRegime, GeneralRegime]

# Whether a prefix ends every member that reaches it.
Completion = Callable[[Sequence[int]], bool]
# Raises ModelMismatchError unless the regime can code every member of a
# lexicographically sorted list of distinct (data, nbits) pairs.
MemberCheck = Callable[[list], None]


@dataclass(frozen=True)
class CodecParams:
    regime: Regime
    family: Family = BinomialFamily()


def _schedule(
    regime: Regime,
) -> tuple[Optional[int], Optional[Completion], Optional[LengthModel], int, MemberCheck]:
    """(depth at which every member ends, completion, length model whose
    termination counts are coded, depth cap, member check).  The fixed
    regime ends members by depth alone and the general regime never ends
    one early, so only the self-delimiting regime has a completion, its
    detector's is_complete.  Its member check asks the detector's
    first_complete once per distinct member where the detector has one,
    and is_complete once per trie node where not.  DECODE_DEPTH_CAP is read
    per call, so lowering it takes effect at once."""
    if isinstance(regime, FixedRegime):
        length = regime.length
        return length, None, None, length, _lengths(lambda n: n == length)
    if isinstance(regime, SelfDelimitingRegime):
        complete = regime.detector.is_complete
        first = getattr(regime.detector, "first_complete", None)
        check = _prefix_free(complete) if first is None else _ends_complete(first)
        return None, complete, None, DECODE_DEPTH_CAP, check
    if isinstance(regime, GeneralRegime):
        model = regime.length_model
        cap = model.max_length()
        return (
            None,
            None,
            model,
            DECODE_DEPTH_CAP if cap is None else cap,
            _lengths(lambda n: model.pmf(n) > 0),
        )
    raise TypeError(f"unknown regime {regime!r}")


def _lengths(possible: Callable[[int], bool]) -> MemberCheck:
    """The check that every member's length is possible."""

    def check(distinct: list) -> None:
        for length in sorted({nbits for _, nbits in distinct}):
            if not possible(length):
                raise ModelMismatchError(f"member of length {length} cannot occur under the regime")

    return check


def _ends_complete(first_complete: Callable[[int, int], Optional[int]]) -> MemberCheck:
    """The check that each member's shortest complete prefix, as the
    detector's first_complete finds it, is the whole member.  That also
    rules out a member that extends another, whose end would be a shorter
    complete prefix of it."""

    def check(distinct: list) -> None:
        for data, nbits in distinct:
            first = first_complete(int.from_bytes(data, "big") >> (8 * len(data) - nbits), nbits)
            if first != nbits:
                if first is None:
                    raise ModelMismatchError(f"member of {nbits} bits does not end complete")
                raise ModelMismatchError(f"member extends a complete {first}-bit prefix")

    return check


def _prefix_free(complete: Completion) -> MemberCheck:
    """The check that complete holds at every member's end and at no
    shorter prefix, for a detector without first_complete, and the
    reference that _ends_complete is tested against.  The detector is a
    pure predicate, so it is asked once per trie node, in the decoder's
    preorder: each member starts at the prefix it shares with the member
    before, which is that member, complete, or a shorter prefix of it that
    was not."""

    def check(distinct: list) -> None:
        prefix = bytearray()  # 0/1 values, as the decoder's detector sees them
        done = bool(distinct) and complete(prefix)
        before = before_nbits = 0
        for data, nbits in distinct:
            value = int.from_bytes(data, "big") >> (8 * len(data) - nbits)
            m = min(nbits, before_nbits)
            del prefix[m - ((value >> (nbits - m)) ^ (before >> (before_nbits - m))).bit_length() :]
            done = done and len(prefix) == before_nbits
            rest = format(value, f"0{nbits}b")[len(prefix) : nbits]
            for bit in rest.encode().translate(_DIGIT_BITS):
                if done:
                    raise ModelMismatchError(f"member extends a complete {len(prefix)}-bit prefix")
                prefix.append(bit)
                done = complete(prefix)
            if not done:
                raise ModelMismatchError(f"member of {nbits} bits does not end complete")
            before, before_nbits = value, nbits

    return check


def _tables(split: Callable, termination: Callable, model: Optional[LengthModel]):
    """Per-call caches over a family's table factories: split(n) and
    termination(d, n).  Keys are ints, which keeps the module-level caches'
    Fraction hashing off the per-node path; depths with equal hazards share
    tables through the first depth that has that hazard, and each depth's
    hazard is computed once.  Each cache keeps at most TABLES_PER_CALL
    entries; the depth maps start afresh when full, which costs sharing but
    no bytes, as a table depends on the hazard's value alone."""
    split = lru_cache(maxsize=TABLES_PER_CALL)(split)
    first_depth: dict[int, int] = {}  # depth -> first depth with its hazard
    by_hazard: dict[Fraction, int] = {}  # hazard -> first depth with it
    hazard_at: dict[int, Fraction] = {}  # first depth -> its hazard

    @lru_cache(maxsize=TABLES_PER_CALL)
    def shared(d0: int, n: int):
        return termination(n, hazard_at[d0])

    def termination_at(d: int, n: int):
        d0 = first_depth.get(d)
        if d0 is None:
            if len(first_depth) >= TABLES_PER_CALL:
                first_depth.clear()
                by_hazard.clear()
                hazard_at.clear()
            h = hazard(model, d)
            d0 = first_depth[d] = by_hazard.setdefault(h, d)
            hazard_at.setdefault(d0, h)
        return shared(d0, n)

    return split, termination_at


def _sort(members: Iterable, regime: Regime):
    """((datas, lengths, cum), model): the distinct members in
    lexicographic order, datas[i] holding member i's bytes and lengths[i]
    its bit length, with cum[i + 1] - cum[i] its multiplicity; and the
    length model whose termination counts are coded.

    Raises ModelMismatchError unless the regime can code every distinct
    member, so before anything is coded."""
    counts = Counter((b.data, b.nbits) for b in map(as_bitstring, members))
    # (data, nbits) is BitString's order: pad bits are zero
    distinct = sorted(counts)
    _, _, model, cap, check = _schedule(regime)
    longest = max((nbits for _, nbits in distinct), default=0)
    if longest > cap:
        raise ModelMismatchError(f"member longer than the depth cap of {cap} bits")
    check(distinct)
    datas = [data for data, _ in distinct]
    lengths = [nbits for _, nbits in distinct]
    cum = list(accumulate(map(counts.__getitem__, distinct), initial=0))
    return (datas, lengths, cum), model


def _decisions(
    sorted_members: tuple, model: Optional[LengthModel], split: Callable, termination: Callable
):
    """Yield (table, outcome) for every decision the encoder codes, in
    coding order, from _sort's members.  A trie node is a range [lo, hi)
    of the sorted members at a depth d; a range of one distinct member is
    coded from the member's bits to its end without the stack.  Where no
    termination counts are coded and the member has one copy, that is a
    run, one item ((split(1), count), bits): the member's remaining count
    bits as one int, as RangeEncoder.encode_intervals reads it."""
    datas, lengths, cum = sorted_members
    stack = [(0, len(datas), 0)] if datas else []
    while stack:
        lo, hi, d = stack.pop()
        n = cum[hi] - cum[lo]
        if hi - lo == 1:
            end = lengths[lo]
            data = datas[lo]
            value = int.from_bytes(data, "big") >> (8 * len(data) - end)
            table = split(n) if end > d else None
            if model is not None:
                for e, bit in enumerate(format(value, f"0{end}b")[d:end], d):
                    yield termination(e, n), 0
                    yield table, n if bit == "1" else 0
                yield termination(end, n), n
            elif n > 1:  # a run is one copy, so m copies take a decision per bit
                for bit in format(value, f"0{end}b")[d:end]:
                    yield table, n if bit == "1" else 0
            elif end > d:
                yield (table, end - d), value & ((1 << (end - d)) - 1)
            continue
        if model is not None:
            n_t = cum[lo + 1] - cum[lo] if lengths[lo] == d else 0  # a prefix sorts first
            yield termination(d, n), n_t
            if n_t:
                lo += 1
                n -= n_t
        # members whose bit d is 1 sort at or after the node's prefix
        # followed by 1, packed into bytes with zero padding
        q, r = divmod(d, 8)
        head = datas[lo]
        mid = bisect_left(datas, head[:q] + bytes(((head[q] & 0xFF00 >> r) | 0x80 >> r,)), lo, hi)
        yield split(n), cum[hi] - cum[mid]
        if mid < hi:
            stack.append((mid, hi, d + 1))
        if lo < mid:
            stack.append((lo, mid, d + 1))


def _decode_walk(n_members: int, params: CodecParams, out: list):
    """The decoder's mirror of _decisions, run by RangeDecoder.decode_walk:
    yield each decision's table, receive its outcome.  Appends the members
    to out in lexicographic order, one BitString per copy.  A node's chain
    is followed without the stack until it branches, which at n = 1 is the
    whole rest of a member; in the fixed regime that rest is one run item
    (table, L - d), its outcomes received as one int.  The prefix is a
    bytearray of 0/1 values, which the run extends in one step and
    BitString.from_bits packs in C."""
    end, complete, model, cap, _ = _schedule(params.regime)
    fam = params.family
    split, termination = _tables(fam.split_table, fam.termination_table, model)
    prefix = bytearray()
    stack = [(n_members, 0, 0)]
    while stack:
        n, d, bit = stack.pop()
        if d:
            prefix[d - 1 :] = (bit,)  # the parent's prefix, then this node's bit
        table = None  # fetched when first needed: a complete node codes no split
        while True:
            if d > cap:
                raise CorruptStreamError(f"member longer than the depth cap of {cap} bits")
            if d == end or complete is not None and complete(prefix):
                out.extend(BitString.from_bits(prefix) for _ in range(n))
                break
            if model is not None:
                n_t = yield termination(d, n)
                if n_t:
                    if model.pmf(d) == 0:
                        # reachable only with full-support termination tables on a
                        # corrupt stream; no encoder output decodes to this state
                        raise CorruptStreamError(f"decoded a member of impossible length {d}")
                    out.extend(BitString.from_bits(prefix) for _ in range(n_t))
                    n -= n_t
                    if not n:
                        break
                    table = None
            if table is None:
                table = split(n)
            if n == 1 and end is not None:
                # a fixed-length member alone below its node: the rest of it
                # is one run, its bits sent back as one int
                rest = yield table, end - d
                prefix += format(rest, f"0{end - d}b").encode().translate(_DIGIT_BITS)
                d = end
                continue
            n1 = yield table
            if 0 < n1 < n:
                stack.append((n1, d + 1, 1))
                stack.append((n - n1, d + 1, 0))
                break
            prefix.append(1 if n1 else 0)
            d += 1


def encode_members(members: Iterable, params: CodecParams, enc: RangeEncoder) -> None:
    """Code the multiset's counts.  N itself is the container's job.

    Raises ModelMismatchError before coding anything for a member the
    regime cannot code, and mid-stream for a decision whose outcome the
    family gives zero probability."""
    sorted_members, model = _sort(members, params.regime)
    fam = params.family
    split, termination = _tables(fam.split_table, fam.termination_table, model)
    enc.encode_intervals(_decisions(sorted_members, model, split, termination))


def decode_members(params: CodecParams, n_members: int, dec: RangeDecoder) -> list[BitString]:
    """The n_members members encode_members coded, in lexicographic order."""
    out: list[BitString] = []
    if n_members:
        dec.decode_walk(_decode_walk(n_members, params, out))
    return out


def ideal_codelength(members: Iterable, params: CodecParams) -> float:
    """Sum of -log2 pmf over the exact (unquantized) distributions of the
    decisions the encoder codes: the optimality yardstick.  In fixed mode
    with theta = 1/2 it equals N*L - log2(N!/prod m_j!)."""
    sorted_members, model = _sort(members, params.regime)
    fam = params.family
    split, termination = _tables(fam.split_log2pmf, fam.termination_log2pmf, model)
    total = 0.0
    for table, k in _decisions(sorted_members, model, split, termination):
        if table.__class__ is tuple:  # a run, summed one decision at a time
            table, count = table
            for bit in format(k, f"0{count}b"):
                total -= table[1] if bit == "1" else table[0]
        else:
            total -= table[k]
    return total
