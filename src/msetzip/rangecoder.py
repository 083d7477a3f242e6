"""Carry-propagating byte-wise range coder over cumulative-frequency tables.

A table is a sequence cum of cumulative frequencies: outcome k owns the
slice [cum[k], cum[k + 1]) of [0, T), where T = cum[-1].  The coder
maintains an interval [low, low + range) inside a sliding 64-bit window.
Coding outcome k narrows the interval to

    low   += (range // T) * cum[k]
    range  = (range // T) * (cum[k + 1] - cum[k])

with the top outcome (cum[k + 1] == T) absorbing the division remainder
so no probability mass is wasted.  The coder takes a whole stream of
decisions in one call, with the registers in local variables:
RangeEncoder.encode_intervals codes each (cum, k) of an iterable, and
RangeDecoder.decode_walk runs a generator that yields tables and
receives, for each, the outcome whose slice holds the code value.
encode_interval(cum, k) and decode_target(cum) are the one-decision
streams.  A table with T == 1 is a point mass: it carries no information, so
nothing is coded for it.

Either stream may also hold a chain: the depths below a node of a
multiset's trie where no member ends and all n members take the same
branch.  Its item is (split, n, termination, d, count), split a table
whose top outcome is n, and at each depth e from d it codes outcome 0 of
e's termination table and then outcome 0 or n of split.  termination(e, n)
gives (table, end): the table of depth e, which every depth in [e, end)
shares, end None where every later depth does.  Both sides call it at d
and then only at each end they reach, and check the table's total and
outcome-0 bound there, once per such stretch of depths.  Where no
termination counts are coded the termination is a point mass, [0, 1] in
one stretch, and a chain at n = 1 is a run of decisions under the
two-outcome table split.  The encoder codes ((split, n, termination, d,
count), bits), one bit per depth, first depth on top, 1 for outcome n.
The decoder takes (split, n, termination, d, count, prefix), decodes at
most count depths, appends each depth's bit to the bytearray prefix and
answers the number c of depths it took, as it does for a tail.  At each
depth it works out both outcomes in copies of its registers and commits
the depth only if the termination outcome is 0 and the split outcome 0 or
n.  Otherwise it stops there, the registers as that depth found them, and
the caller decodes the depth one decision at a time, so any payload
decodes exactly as it would one decision per table.  Both sides refuse a
chain whose n is not its split table's top outcome, whose split total is
out of range or whose count is below 0 with ValueError, before any of its
depths.  The encoder reads the bits of a chain as bytes of 0/1 values, one
small int per depth rather than a shift of the whole int.  It finds a
stretch's dead split outcomes by one scan of those bytes in C, the first 1
where outcome n has no mass and the first 0 where outcome 0 has none, and
settles once per stretch whether its termination table and outcome 0
narrow the range and how many symbols it codes, so each depth runs only
its arithmetic.  The depth a scan finds codes its termination count and
then raises ModelMismatchError, as one decision at a time would.

The decoder also takes a tail: the rest of one member below its node in
the self-delimiting regime, where only the member's bits tell where it
ends.  Its item is (split, prefix, complete, count), split a two-outcome
table whose outcome 1 has mass.  At each of at most count depths it takes
x = (range // T) cum[1], or range >> 1 for [0, 1, 2], decodes outcome 1,
with the remainder, if value >= x and 0 otherwise, exactly as
decode_target(split) would, appends the outcome to the bytearray prefix
and stops at the first depth where complete(prefix) holds.  It answers
the number of depths it took.  A tail never decodes past the member's
end, so it needs no copies of the registers and no byte step.  The
encoder codes the same depths as a chain at n = 1.  A tail whose split
has other than two outcomes, a dead outcome 1 or a total out of range, or
whose count is below 0, raises ValueError before any of its depths.

Whenever range drops below 2**56 the top byte of low is appended to the
output and both registers scale up by 256.  A carry out of the window is
added straight into the output, turning its trailing 0xFF bytes to 0x00
and incrementing the byte before them.  The code value stays below 1, so
no carry passes the first byte, and the output is pure bytes with no bit
stuffing.

A stretch whose termination table is a point mass (T == 1) under the
equiprobable split [0, 1, 2], which binomial 1/2 and every symmetric
Beta-binomial give at n = 1, codes whole bytes of depths at a time.  There
each depth takes x = range >> 1, the split's generic update without the
division and the multiply: the shift CABAC uses for its bypass bins.  Its
depths go one by one up to its first renormalisation, at most nine of
them, which leaves range = R = 256 q in [2**63, 2**64).  From there eight
halvings leave range == q exactly and the next renormalisation restores R,
so each further 8 decisions j only add q j to low and shift out one byte.
The encoder codes m such bytes of decisions J as one big-int step,
(low << 8 m) + R J, of m + 8 bytes: its top m bytes are output, the other
8 are low, and a bit above them all is a carry into the output before.  The
decoder slices the next m bytes B from its buffer and divides
(value << 8 (m - 1)) | B >> 8 by q: the quotient is J, and the remainder
followed by B's last byte is value.  A tail of t < 8 decisions j adds
(R >> t) j to low, or takes j = value // (R >> t), and leaves
range = R >> t.  The decoder appends the bits of J and j to prefix in one
step, and steps bytes only while value < range, which holds unless the
payload opens with eight 0xFF bytes; there value == range, and the
stretch decodes one depth at a time as the per-decision decoder would.

With a 64-bit range register and table totals capped at TOTAL_MAX =
2**24, the quotient range // T is at least 2**32, which bounds the
truncation loss per symbol below log2(1 + 2**-32) bits.  Termination
picks the value in the final interval with the most trailing zero bits
and emits only its significant prefix, so the whole stream costs less
than 2 bits beyond the information content of the symbol sequence (the
decoder treats bytes past the end of input as zeros).  The decoder holds
the payload as one bytes buffer and reads it by index, as a range decoder
over input in memory does (G. N. N. Martin, "Range encoding", 1979).

No input narrows the interval to nothing, so a range of 0 is a bug in
the coder: both sides raise RuntimeError when they would renormalise one,
a test made once per output byte, not once per decision.  The decoder
also refuses, once per decode_walk, to start from a range outside
[2**56, 2**64), where every renormalisation leaves it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Generator, Iterable, Sequence, TypeVar

from .bits import BitReader, BitString, marked_bits
from .errors import ModelMismatchError

RANGE_BITS = 64
TOP = 1 << (RANGE_BITS - 8)
MASK = (1 << RANGE_BITS) - 1
TOTAL_MAX = 1 << 24
# renormalising a zero range would shift bytes forever
_ZERO_RANGE = "range coder interval is empty"

T = TypeVar("T")


class RangeEncoder:
    """Streaming encoder; collect output with finish()."""

    def __init__(self):
        self.low = 0
        self.range = MASK
        self._out = bytearray()
        self._finished = False
        self.symbols_coded = 0

    def _carry(self) -> None:
        out = self._out
        i = len(out) - 1
        while out[i] == 0xFF:
            out[i] = 0
            i -= 1
        out[i] += 1

    def encode_interval(self, cum: Sequence[int], k: int) -> None:
        """Code outcome k of the table cum.

        Raises ModelMismatchError if k is outside the table or has zero
        frequency, ValueError if cum[-1] is not in [1, TOTAL_MAX].
        """
        self.encode_intervals(((cum, k),))

    def encode_intervals(self, decisions: Iterable[tuple]) -> None:
        """Code outcome k of the table cum for each (cum, k) in turn, with
        the registers in local variables and no call per decision.  A chain
        ((split, n, termination, d, count), bits), bits an int in
        [0, 2**count), codes, for each depth e from d and each bit, first
        bit on top, outcome 0 of e's termination table and then outcome n
        of split for a 1 bit, 0 for a 0 bit, exactly as those decisions one
        by one would.  Its termination(e, n) gives (table, end), the table
        shared by the depths [e, end), end None for every later depth; it
        is called at d and then only at each end the chain reaches.  A
        stretch's first bit whose split outcome has no mass is found before
        any of its depths is coded, by one scan of its bits, and the depths
        before it run without a test of the tables.

        An error leaves the decisions before the failing one coded, and
        symbols_coded counts them: a chain's refused depth codes its
        termination count first.  A malformed chain raises ValueError
        before any of its decisions.
        """
        if self._finished:
            raise RuntimeError("encoder already finished")
        low, rng, coded = self.low, self.range, self.symbols_coded
        out = self._out
        emit, shift = out.append, RANGE_BITS - 8
        try:
            for cum, k in decisions:
                if cum.__class__ is tuple:
                    # a chain: per depth, termination outcome 0, then split
                    # outcome 0 or n by the next bit of k, a stretch at a time
                    split, n, termination, d, count = cum
                    s1, sn, stotal = _chain(split, n, count)
                    if not 0 <= k < 1 << count:
                        raise ValueError(f"bits {k} do not fit a chain of {count} depths")
                    half = stotal == 2 and s1 == 1
                    bits = None
                    left = count  # the depths still to code are k's low bits
                    while left:
                        # a stretch starts: its table, checked once
                        term, end = termination(d, n)
                        total = term[-1]
                        if not 1 <= total <= TOTAL_MAX:
                            raise ValueError(f"total must be in [1, {TOTAL_MAX}], got {total}")
                        hi = term[1]
                        if not hi:
                            raise ModelMismatchError("outcome 0 has zero probability under the model")
                        m = end - d if end is not None and d < end < d + left else left
                        d += m
                        left -= m
                        if total == 1 and half:
                            # equiprobable: the stretch's m bits j straight from
                            # k, one at a time up to the first renormalisation,
                            # at most nine of them
                            j = k if m == count else k >> left & (1 << m) - 1
                            for i in range(m - 1, -1, -1):
                                x = rng >> 1
                                if j >> i & 1:
                                    low += x
                                    rng -= x
                                    if low > MASK:
                                        self._carry()
                                        low &= MASK
                                else:
                                    rng = x
                                if rng < TOP:
                                    while rng < TOP:
                                        if not rng:
                                            raise RuntimeError(_ZERO_RANGE)
                                        emit(low >> shift)
                                        low = (low << 8) & MASK
                                        rng <<= 8
                                    break
                            if i:
                                # range is 256 q: each 8 bits b add q b to low and
                                # shift out a byte, so q8 bytes of bits B are one step
                                q8, t = divmod(i, 8)
                                if q8:
                                    v = (low << 8 * q8) + rng * (j >> t & (1 << 8 * q8) - 1)
                                    if v >> RANGE_BITS + 8 * q8:
                                        self._carry()
                                    out += (v >> RANGE_BITS & (1 << 8 * q8) - 1).to_bytes(q8, "big")
                                    low = v & MASK
                                if t:
                                    rng >>= t
                                    low += rng * (j & (1 << t) - 1)
                                    if low > MASK:
                                        self._carry()
                                        low &= MASK
                            coded += m
                            continue
                        if bits is None:
                            bits = marked_bits(k | 1 << count)
                        # the stretch's bits [a, b), and in stop the first
                        # that takes a dead split outcome: one scan in C
                        a, b = count - left - m, count - left
                        stop = b
                        if sn == stotal:  # the first 1 bit; -1, none, wraps to b
                            stop = bits.find(1, a, b) % (b + 1)
                        if not s1:  # the first 0 bit before it
                            stop = bits.find(0, a, stop) % (stop + 1)
                        narrow, narrow0 = total > 1 and hi != total, s1 != stotal
                        coded += (stop - a) * ((total > 1) + (stotal > 1))
                        for bit in bits[a:stop]:
                            if narrow:
                                rng = rng // total * hi
                                while rng < TOP:
                                    if not rng:
                                        raise RuntimeError(_ZERO_RANGE)
                                    emit(low >> shift)
                                    low = (low << 8) & MASK
                                    rng <<= 8
                            if bit:
                                x = rng // stotal * sn
                                low += x
                                rng -= x
                                if low > MASK:
                                    self._carry()
                                    low &= MASK
                            elif narrow0:
                                rng = rng // stotal * s1
                            while rng < TOP:
                                if not rng:
                                    raise RuntimeError(_ZERO_RANGE)
                                emit(low >> shift)
                                low = (low << 8) & MASK
                                rng <<= 8
                        if stop < b:
                            # the refused depth codes its termination count
                            # first, as one decision at a time would
                            if narrow:
                                rng = rng // total * hi
                                while rng < TOP:
                                    if not rng:
                                        raise RuntimeError(_ZERO_RANGE)
                                    emit(low >> shift)
                                    low = (low << 8) & MASK
                                    rng <<= 8
                            coded += total > 1
                            raise ModelMismatchError(
                                f"outcome {n if bits[stop] else 0} has zero probability under the model"
                            )
                    continue
                total = cum[-1]
                if not 1 <= total <= TOTAL_MAX:
                    raise ValueError(f"total must be in [1, {TOTAL_MAX}], got {total}")
                if not 0 <= k < len(cum) - 1:
                    raise ModelMismatchError(f"outcome {k} outside support 0..{len(cum) - 2}")
                lo = cum[k]
                hi = cum[k + 1]
                if lo == hi:
                    raise ModelMismatchError(f"outcome {k} has zero probability under the model")
                if total == 1:
                    continue
                q = rng // total
                low += q * lo
                rng = rng - q * lo if hi == total else q * (hi - lo)
                if low > MASK:
                    self._carry()
                    low &= MASK
                while rng < TOP:
                    if not rng:
                        raise RuntimeError(_ZERO_RANGE)
                    emit(low >> shift)
                    low = (low << 8) & MASK
                    rng <<= 8
                coded += 1
        finally:
            self.low, self.range, self.symbols_coded = low, rng, coded

    def finish(self) -> BitString:
        """Flush and return the payload with its exact bit length.

        The returned BitString may be shorter than the bytes shifted out
        internally: any value inside the final interval identifies the
        stream, and we pick the one whose binary expansion ends earliest.
        """
        if self._finished:
            raise RuntimeError("encoder already finished")
        self._finished = True
        hi = self.low + self.range
        t = RANGE_BITS
        while True:
            v = ((self.low + (1 << t) - 1) >> t) << t
            if self.low <= v < hi:
                break
            t -= 1
        nbits = 8 * len(self._out) + RANGE_BITS - t
        if v > MASK:
            self._carry()
            v &= MASK
        self._out += v.to_bytes(RANGE_BITS // 8, "big")
        nbytes = (nbits + 7) >> 3
        assert not any(self._out[nbytes:]), "non-zero byte beyond payload"
        return BitString(bytes(self._out[:nbytes]), nbits)


class RangeDecoder:
    """Mirror of RangeEncoder.

    Construct with the payload bytes, or from a BitReader with
    from_reader; bytes past the end of the payload read as zeros.  Then run
    the decisions through decode_walk, or decode_target one at a time.
    """

    def __init__(self, data: bytes):
        self._data = data = bytes(data)
        self._pos = RANGE_BITS // 8
        self.range = MASK
        self.value = int.from_bytes(data[: self._pos].ljust(self._pos, b"\0"), "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "RangeDecoder":
        """The same as RangeDecoder(data)."""
        return cls(data)

    @classmethod
    def from_reader(cls, reader: BitReader) -> "RangeDecoder":
        return cls(reader.read_rest())

    def decode_target(self, cum: Sequence[int]) -> int:
        """The outcome of the table cum that encode_interval coded.

        A point mass (cum[-1] == 1) leaves the decoder's state as it is.
        """
        return self.decode_walk(_single(cum))

    def decode_walk(self, walk: Generator[Sequence[int] | tuple, int, T]) -> T:
        """Run walk, a generator that yields tables, sending it the decoded
        outcome of each one, and return what it returns.  The registers
        stay in local variables, with no call per decision, so a stream
        whose tables depend on earlier outcomes decodes in one call.

        A table is a list or array.  A walk may also yield a chain (split,
        n, termination, d, count, prefix), termination(e, n) giving (table,
        end) as for RangeEncoder.encode_intervals and called only where a
        stretch starts: it is sent the number c <= count of depths from d
        whose termination outcome is 0 and split outcome 0 or n, exactly as
        those decisions one by one would have decoded them, each depth's
        bit, 1 for outcome n, appended to the bytearray prefix, and the
        next depth is left undecoded.  A walk may also yield a tail (split,
        prefix, complete, count), split a two-outcome table: it is sent the
        number c <= count of depths decoded under split, one by one, each
        outcome appended to prefix, c the first at which complete(prefix)
        holds, else count.  A malformed chain or tail raises ValueError
        before any of its depths.
        """
        value, rng, data, pos = self.value, self.range, self._data, self._pos
        if not TOP <= rng <= MASK:
            # every renormalisation leaves range in [TOP, MASK], so this one
            # test keeps a register set outside it, 0 above all, from the
            # division by range // total of every decision
            raise RuntimeError(_ZERO_RANGE if not rng else f"range {rng} outside [2**56, 2**64)")
        size = len(data)
        try:
            cum = next(walk)
            while True:
                if cum.__class__ is tuple:
                    if len(cum) == 4:
                        # a tail: a depth at a time under the two-outcome split,
                        # each bit appended to prefix, up to the first prefix
                        # complete holds for; outcome 1 takes the remainder
                        split, prefix, complete, count = cum
                        s1, _, total = _chain(split, 1, count)
                        if s1 == total:
                            raise ValueError("a tail needs a split whose outcome 1 has mass")
                        half = total == 2 and s1 == 1
                        append = prefix.append
                        c = 0
                        for c in range(1, count + 1):
                            x = rng >> 1 if half else rng // total * s1
                            if value >= x:
                                value -= x
                                rng -= x
                                append(1)
                            else:
                                rng = x
                                append(0)
                            while rng < TOP:
                                if not rng:
                                    raise RuntimeError(_ZERO_RANGE)
                                value = (value << 8 | (data[pos] if pos < size else 0)) & MASK
                                pos += 1
                                rng <<= 8
                            if complete(prefix):
                                break
                        cum = walk.send(c)
                        continue
                    # a chain: decode a depth's termination count, then its
                    # split, into v, r, p, and commit the depth only if they
                    # are 0, and 0 or n: its bit appended to prefix
                    split, n, termination, d, count, prefix = cum
                    s1, sn, stotal = _chain(split, n, count)
                    half = stotal == 2 and s1 == 1
                    append = prefix.append
                    first, stop = d, d + count
                    while d < stop:
                        # a stretch starts: its table, checked once
                        term, end = termination(d, n)
                        total = term[-1]
                        if not 1 <= total <= TOTAL_MAX:
                            raise ValueError(f"total must be in [1, {TOTAL_MAX}], got {total}")
                        hi = term[1]
                        if not hi:  # outcome 0 is dead: the depth goes
                            break  # one decision at a time
                        if end is None or not d < end < stop:
                            end = stop
                        if total == 1 and half:
                            # equiprobable: bit by bit up to the first
                            # renormalisation, then the last i bits in bytes
                            for i in range(end - d - 1, -1, -1):
                                x = rng >> 1
                                if value >= x:
                                    append(1)
                                    value -= x
                                    rng -= x
                                else:
                                    append(0)
                                    rng = x
                                if rng < TOP:
                                    while rng < TOP:
                                        if not rng:
                                            raise RuntimeError(_ZERO_RANGE)
                                        value = (value << 8 | (data[pos] if pos < size else 0)) & MASK
                                        pos += 1
                                        rng <<= 8
                                    # value >= range only on a payload that opens
                                    # with eight 0xFF bytes; it stays bit by bit
                                    if value < rng:
                                        break
                            d = end
                            if i:  # left only where the loop broke off
                                # the mirror of the encoder's byte steps: q8
                                # bytes B of input give q8 bytes of bits at
                                # one division, then t bits at another
                                q8, t = divmod(i, 8)
                                x = 0
                                if q8:
                                    b = data[pos : pos + q8]
                                    b = int.from_bytes(b, "big") << 8 * (q8 - len(b))
                                    pos += q8
                                    x, r = divmod((value << 8 * q8 - 8) | b >> 8, rng >> 8)
                                    value = r << 8 | b & 0xFF
                                if t:
                                    rng >>= t
                                    y, value = divmod(value, rng)
                                    x = x << t | y
                                prefix += marked_bits(x | 1 << i)
                            continue
                        for d in range(d, end):
                            v, r, p = value, rng, pos
                            if hi != total:
                                r = rng // total * hi
                                if v >= r:  # that is, v // (rng // total) >= hi
                                    break
                                while r < TOP:
                                    if not r:
                                        raise RuntimeError(_ZERO_RANGE)
                                    v = (v << 8 | (data[p] if p < size else 0)) & MASK
                                    p += 1
                                    r <<= 8
                            q = r // stotal
                            if s1 and (s1 == stotal or v < q * s1):
                                if s1 != stotal:
                                    r = q * s1
                                append(0)
                            elif sn < stotal and v >= q * sn:  # the remainder zone too
                                x = q * sn
                                v -= x
                                r -= x
                                append(1)
                            else:
                                break
                            while r < TOP:
                                if not r:
                                    raise RuntimeError(_ZERO_RANGE)
                                v = (v << 8 | (data[p] if p < size else 0)) & MASK
                                p += 1
                                r <<= 8
                            value, rng, pos = v, r, p
                        else:
                            d = end
                            continue
                        break  # the depth d stopped the chain
                    cum = walk.send(d - first)
                    continue
                total = cum[-1]
                if not 1 <= total <= TOTAL_MAX:
                    raise ValueError(f"total must be in [1, {TOTAL_MAX}], got {total}")
                q = rng // total
                t = value // q
                if t >= total:  # remainder zone belongs to the top outcome
                    t = total - 1
                # bisect_right skips zero-frequency outcomes, whose cum
                # entries collapse onto the next live one.
                k = bisect_right(cum, t) - 1
                lo = cum[k]
                value -= q * lo
                rng = rng - q * lo if cum[k + 1] == total else q * (cum[k + 1] - lo)
                while rng < TOP:
                    if not rng:
                        raise RuntimeError(_ZERO_RANGE)
                    value = (value << 8 | (data[pos] if pos < size else 0)) & MASK
                    pos += 1
                    rng <<= 8
                cum = walk.send(k)
        except StopIteration as end:
            return end.value
        finally:
            self.value, self.range, self._pos = value, rng, pos


def _single(cum: Sequence[int]) -> Generator[Sequence[int], int, int]:
    """The walk of one decision: decode_target as a decode_walk."""
    return (yield cum)


def _chain(split: Sequence[int], n: int, count: int) -> tuple[int, int, int]:
    """(cum[1], cum[n], total) of a chain's split table cum, the bounds of
    its outcomes 0 and n, or at n = 1 of a tail's.  Raises ValueError, for
    the encoder and the decoder alike, unless n >= 1 is the table's top
    outcome, total is in [1, TOTAL_MAX] and count >= 0."""
    if n < 1 or len(split) != n + 2:
        raise ValueError(f"a chain at n = {n} needs a split table of {n + 1} outcomes")
    total = split[-1]
    if not 1 <= total <= TOTAL_MAX:
        raise ValueError(f"total must be in [1, {TOTAL_MAX}], got {total}")
    if count < 0:
        raise ValueError(f"a chain needs count >= 0, got {count}")
    return split[1], split[n], total
