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

Either stream may also hold a run: many decisions under one two-outcome
table [0, head, total], with the table checked once.  A run puts the tuple
(cum, count), count >= 1 its number of decisions, in the table's slot, and
its outcomes are the bits of one int, first decision on top: the encoder
codes the item ((cum, count), bits), and the decoder, handed (cum, count),
answers with that int.  Both loops take x = (range // T) * head, the
generic update of either outcome; outcome 1 is the one where value >= x.
Under the equiprobable table [0, 1, 2], which binomial 1/2 and every
symmetric Beta-binomial give at n = 1, x is range >> 1, the same integer
without the division and the multiply: the shift CABAC uses for its bypass
bins.  A run leaves the coder's bytes and state exactly as its decisions
coded one at a time would, and both sides refuse a run whose table has
other than two outcomes, whose total is out of range or whose count is
below 1 with ValueError, before any of its decisions.

Whenever range drops below 2**56 the top byte of low is appended to the
output and both registers scale up by 256.  A carry out of the window is
added straight into the output, turning its trailing 0xFF bytes to 0x00
and incrementing the byte before them.  The code value stays below 1, so
no carry passes the first byte, and the output is pure bytes with no bit
stuffing.

An equiprobable run codes a whole stretch of bytes at a time.  Its
decisions go one by one up to its first renormalisation, at most nine of
them, which leaves range = R = 256 q in [2**63, 2**64).  From there eight
halvings leave range == q exactly and the next renormalisation restores R,
so each further 8 decisions j only add q j to low and shift out one byte.
The encoder codes m such bytes of decisions J as one big-int step,
(low << 8 m) + R J, of m + 8 bytes: its top m bytes are output, the other
8 are low, and a bit above them all is a carry into the output before.  The
decoder pulls the next m bytes B and divides (value << 8 (m - 1)) | B >> 8
by q: the quotient is J, and the remainder followed by B's last byte is
value.  A tail of t < 8 decisions j adds (R >> t) j to low, or takes
j = value // (R >> t), and leaves range = R >> t.  The decoder steps bytes
only while value < range, which holds unless the payload opens with eight
0xFF bytes; there value == range, and the run decodes one decision at a
time as the per-decision decoder would.

With a 64-bit range register and table totals capped at TOTAL_MAX =
2**24, the quotient range // T is at least 2**32, which bounds the
truncation loss per symbol below log2(1 + 2**-32) bits.  Termination
picks the value in the final interval with the most trailing zero bits
and emits only its significant prefix, so the whole stream costs less
than 2 bits beyond the information content of the symbol sequence (the
decoder treats bytes past the end of input as zeros).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, islice, repeat
from typing import Callable, Generator, Iterable, Sequence, TypeVar

from .bits import BitReader, BitString
from .errors import ModelMismatchError

RANGE_BITS = 64
TOP = 1 << (RANGE_BITS - 8)
MASK = (1 << RANGE_BITS) - 1
TOTAL_MAX = 1 << 24

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
        the registers in local variables and no call per decision.  A run
        ((cum, count), bits), cum a two-outcome table and bits an int in
        [0, 2**count), codes outcome 1 for each 1 bit and outcome 0 for each
        0 bit, first bit on top, exactly as those decisions one by one would.

        An error leaves the decisions before the failing one coded.  A
        malformed run raises ValueError before any of its decisions.
        """
        if self._finished:
            raise RuntimeError("encoder already finished")
        low, rng, coded = self.low, self.range, self.symbols_coded
        out = self._out
        emit, shift = out.append, RANGE_BITS - 8
        try:
            for cum, k in decisions:
                if cum.__class__ is tuple:
                    head, total, count = _run(cum)
                    if not 0 <= k < 1 << count:
                        raise ValueError(f"bits {k} do not fit a run of {count} decisions")
                    half = total == 2 and head == 1
                    # stop bits go uncoded, from the run's first outcome of
                    # zero probability to its end: none where both outcomes
                    # are live, as under [0, 1, 2]
                    if head == total:
                        stop = k.bit_length()
                    elif head:
                        stop = 0
                    else:
                        stop = (k ^ (1 << count) - 1).bit_length()
                    # a point mass codes nothing, and outcome 0 beside a dead
                    # outcome 1 keeps the registers as they are
                    if total > 1 and head != total:
                        base = count
                        for n in range(count - 1, stop - 1, -1):
                            if n < base:
                                # the next 30 bits of k, one digit of Python's
                                # int: k is shifted once per 30 bits, not per bit
                                base = n - 29 if n > 29 else 0
                                bits = k >> base & 0x3FFFFFFF
                            x = rng >> 1 if half else rng // total * head
                            if bits >> n - base & 1:
                                low += x
                                rng -= x
                                if low > MASK:
                                    self._carry()
                                    low &= MASK
                            else:
                                rng = x
                            if rng < TOP:
                                while rng < TOP:
                                    emit(low >> shift)
                                    low = (low << 8) & MASK
                                    rng <<= 8
                                if half:
                                    break
                        if half and n:
                            # range is 256 q: each 8 bits j add q j to low and
                            # shift out a byte, so m bytes of bits J are one step
                            m, t = divmod(n, 8)
                            if m:
                                v = (low << 8 * m) + rng * (k >> t & (1 << 8 * m) - 1)
                                if v >> RANGE_BITS + 8 * m:
                                    self._carry()
                                out += (v >> RANGE_BITS & (1 << 8 * m) - 1).to_bytes(m, "big")
                                low = v & MASK
                            if t:
                                rng >>= t
                                low += rng * (k & (1 << t) - 1)
                                if low > MASK:
                                    self._carry()
                                    low &= MASK
                    if total > 1:
                        coded += count - stop
                    if stop:
                        raise ModelMismatchError(
                            f"the run's outcome {1 if head else 0} has zero probability"
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

    Construct with a pull() callable returning one byte, an int in
    [0, 256), per call (return 0 past the end of data), or use from_bytes /
    from_reader, then run the decisions through decode_walk, or
    decode_target one at a time.
    """

    def __init__(self, pull: Callable[[], int]):
        self._pull = pull
        self.range = MASK
        self.value = 0
        for _ in range(RANGE_BITS // 8):
            self.value = (self.value << 8) | (pull() & 0xFF)

    @classmethod
    def from_bytes(cls, data: bytes) -> "RangeDecoder":
        return cls.from_reader(BitReader(data))

    @classmethod
    def from_reader(cls, reader: BitReader) -> "RangeDecoder":
        return cls(chain(reader.read_rest(), repeat(0)).__next__)

    def decode_target(self, cum: Sequence[int]) -> int:
        """The outcome of the table cum that encode_interval coded.

        A point mass (cum[-1] == 1) leaves the decoder's state as it is.
        """
        return self.decode_walk(_single(cum))

    def decode_walk(self, walk: Generator[Sequence[int] | tuple[Sequence[int], int], int, T]) -> T:
        """Run walk, a generator that yields tables, sending it the decoded
        outcome of each one, and return what it returns.  The registers
        stay in local variables, with no call per decision, so a stream
        whose tables depend on earlier outcomes decodes in one call.

        A table is a list or array.  A walk may also yield a run, the tuple
        (cum, count) of a two-outcome table and a number of decisions under
        it; it is sent their outcomes as one int, the first decision's
        outcome in its top bit, exactly as the decisions one by one would
        have decoded them.  A malformed run raises ValueError before any of
        its decisions.
        """
        value, rng, pull = self.value, self.range, self._pull
        try:
            cum = next(walk)
            while True:
                if cum.__class__ is tuple:
                    head, total, count = _run(cum)
                    k = 0
                    if head != total:  # else outcome 1 is dead and every outcome is 0
                        half = total == 2 and head == 1
                        # k holds at most 30 outcomes, one digit of Python's
                        # int, and the older ones wait in top, which grows
                        # once per 30 outcomes, not once per outcome
                        top, fold = 0, count - 30
                        for n in range(count - 1, -1, -1):
                            x = rng >> 1 if half else rng // total * head
                            if value >= x:  # that is, value // (rng // total) >= head
                                k = k << 1 | 1
                                value -= x
                                rng -= x
                            else:
                                k <<= 1
                                rng = x
                            if rng < TOP:
                                while rng < TOP:
                                    value = ((value << 8) | (pull() & 0xFF)) & MASK
                                    rng <<= 8
                                # value >= range only on a payload that opens
                                # with eight 0xFF bytes; it stays bit by bit
                                if half and value < rng:
                                    break
                            if n == fold:
                                top = top << 30 | k
                                k = 0
                                fold -= 30
                        if top:
                            k |= top << fold + 30 - n
                        if n:  # left only where the loop broke off
                            # the mirror of the encoder's byte steps: m bytes
                            # B of input give m bytes of bits at one division
                            m, t = divmod(n, 8)
                            if m:
                                b = int.from_bytes(bytes(islice(iter(pull, None), m)), "big")
                                j, r = divmod((value << 8 * m - 8) | b >> 8, rng >> 8)
                                value = r << 8 | b & 0xFF
                                k = k << 8 * m | j
                            if t:
                                rng >>= t
                                j, value = divmod(value, rng)
                                k = k << t | j
                    cum = walk.send(k)
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
                    value = ((value << 8) | (pull() & 0xFF)) & MASK
                    rng <<= 8
                cum = walk.send(k)
        except StopIteration as end:
            return end.value
        finally:
            self.value, self.range = value, rng


def _single(cum: Sequence[int]) -> Generator[Sequence[int], int, int]:
    """The walk of one decision: decode_target as a decode_walk."""
    return (yield cum)


def _run(item: tuple) -> tuple[int, int, int]:
    """(head, total, count) of the run item (cum, count), whose table
    cum = [0, head, total] gives outcome 0 the slice [0, head) and outcome 1
    [head, total).  Raises ValueError, for the encoder and the decoder
    alike, unless cum has two outcomes, total is in [1, TOTAL_MAX] and
    count >= 1."""
    (_, head, total), count = item  # a ValueError unless cum has two outcomes
    if not 1 <= total <= TOTAL_MAX:
        raise ValueError(f"total must be in [1, {TOTAL_MAX}], got {total}")
    if count < 1:
        raise ValueError(f"a run needs count >= 1, got {count}")
    return head, total, count
