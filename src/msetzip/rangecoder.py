"""Carry-propagating byte-wise range coder over cumulative-frequency tables.

A table is a sequence cum of cumulative frequencies: outcome k owns the
slice [cum[k], cum[k + 1]) of [0, T), where T = cum[-1].  The coder
maintains an interval [low, low + range) inside a sliding 64-bit window.
Coding outcome k narrows the interval to

    low   += (range // T) * cum[k]
    range  = (range // T) * (cum[k + 1] - cum[k])

with the top outcome (cum[k + 1] == T) absorbing the division remainder
so no probability mass is wasted.  RangeEncoder.encode_interval(cum, k)
codes k; RangeDecoder.decode_target(cum) finds the outcome whose slice
holds the code value and narrows by it, in the same call.  A table with
T == 1 is a point mass: it carries no information, so nothing is coded
for it.

Whenever range drops below 2**56 the top byte of low is appended to the
output and both registers scale up by 256.  A carry out of the window is
added straight into the output, turning its trailing 0xFF bytes to 0x00
and incrementing the byte before them.  The code value stays below 1, so
no carry passes the first byte, and the output is pure bytes with no bit
stuffing.

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
from typing import Callable, Sequence

from .bits import BitReader, BitString
from .errors import ModelMismatchError

RANGE_BITS = 64
TOP = 1 << (RANGE_BITS - 8)
MASK = (1 << RANGE_BITS) - 1
TOTAL_MAX = 1 << 24


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
        if self._finished:
            raise RuntimeError("encoder already finished")
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
            return
        rng = self.range
        q = rng // total
        low = self.low + q * lo
        rng = rng - q * lo if hi == total else q * (hi - lo)
        if low > MASK:
            self._carry()
            low &= MASK
        while rng < TOP:
            self._out.append(low >> (RANGE_BITS - 8))
            low = (low << 8) & MASK
            rng <<= 8
        self.low = low
        self.range = rng
        self.symbols_coded += 1

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

    Construct with a pull() callable returning one byte per call (return
    0 past the end of data), or use from_bytes / from_reader, then call
    decode_target(cum) once per coded outcome.
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
        return cls(reader.read_byte_padded)

    def decode_target(self, cum: Sequence[int]) -> int:
        """The outcome of the table cum that encode_interval coded.

        A point mass (cum[-1] == 1) leaves the decoder's state as it is.
        """
        total = cum[-1]
        if not 1 <= total <= TOTAL_MAX:
            raise ValueError(f"total must be in [1, {TOTAL_MAX}], got {total}")
        rng = self.range
        q = rng // total
        t = self.value // q
        if t >= total:   # remainder zone belongs to the top outcome
            t = total - 1
        # bisect_right skips zero-frequency outcomes, whose cum entries
        # collapse onto the next live one.
        k = bisect_right(cum, t) - 1
        lo = cum[k]
        value = self.value - q * lo
        rng = rng - q * lo if cum[k + 1] == total else q * (cum[k + 1] - lo)
        while rng < TOP:
            value = ((value << 8) | (self._pull() & 0xFF)) & MASK
            rng <<= 8
        self.value = value
        self.range = rng
        return k
