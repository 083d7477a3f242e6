"""Carry-propagating byte-wise range coder.

The coder maintains an interval [low, low + range) inside a sliding
64-bit window.  Encoding a symbol with cumulative frequency cum, count
freq and table total T narrows the interval to

    low   += (range // T) * cum
    range  = (range // T) * freq

with the top symbol (cum + freq == T) absorbing the division remainder
so no probability mass is wasted.  Whenever range drops below 2**56 the
top byte of low is shifted out and both registers scale up by 256; a
carry out of the window ripples through the emitted stream via the
classic cache / pending-0xFF mechanism, so output is pure bytes with no
bit stuffing.

With a 64-bit range register and table totals capped at TOTAL_MAX =
2**24, the quotient range // T is at least 2**32, which bounds the
truncation loss per symbol below log2(1 + 2**-32) bits.  Termination
picks the value in the final interval with the most trailing zero bits
and emits only its significant prefix, so the whole stream costs less
than 2 bits beyond the information content of the symbol sequence (the
decoder treats bytes past the end of input as zeros).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .bits import BitReader, BitString

RANGE_BITS = 64
TOP = 1 << (RANGE_BITS - 8)
MASK = (1 << RANGE_BITS) - 1
TOTAL_MAX = 1 << 24


class FreqInterval(NamedTuple):
    """One symbol's slice of a quantized frequency table."""

    cum: int
    freq: int
    total: int


def _check_interval(iv: FreqInterval) -> None:
    if not 1 <= iv.total <= TOTAL_MAX:
        raise ValueError(f"total must be in [1, {TOTAL_MAX}], got {iv.total}")
    if iv.freq < 1:
        raise ValueError("freq must be >= 1 (zero-probability symbol is unencodable)")
    if iv.cum < 0 or iv.cum + iv.freq > iv.total:
        raise ValueError("malformed interval: cum + freq exceeds total")


class RangeEncoder:
    """Streaming encoder; collect output with finish()."""

    def __init__(self):
        self.low = 0
        self.range = MASK
        self._out = bytearray()
        self._cache = 0
        self._have_cache = False
        self._pending = 0          # run of 0xFF bytes awaiting carry resolution
        self._finished = False
        self.symbols_coded = 0

    def _shift_low(self) -> None:
        low = self.low
        if low < 0xFF << (RANGE_BITS - 8) or low > MASK:
            carry = low >> RANGE_BITS
            if self._have_cache:
                self._out.append((self._cache + carry) & 0xFF)
            if self._pending:
                ff = (0xFF + carry) & 0xFF
                self._out.extend(bytes([ff]) * self._pending)
                self._pending = 0
            self._cache = (low >> (RANGE_BITS - 8)) & 0xFF
            self._have_cache = True
        else:
            self._pending += 1
        self.low = (low << 8) & MASK

    def encode_interval(self, iv: FreqInterval) -> None:
        if self._finished:
            raise RuntimeError("encoder already finished")
        _check_interval(iv)
        q = self.range // iv.total
        self.low += q * iv.cum
        if iv.cum + iv.freq == iv.total:
            self.range -= q * iv.cum
        else:
            self.range = q * iv.freq
        while self.range < TOP:
            self._shift_low()
            self.range <<= 8
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
        t = RANGE_BITS + 8
        while True:
            v = ((self.low + (1 << t) - 1) >> t) << t
            if self.low <= v < hi:
                break
            t -= 1
        pre_bits = 8 * (len(self._out) + self._pending + (1 if self._have_cache else 0))
        nbits = pre_bits + max(0, RANGE_BITS - t)
        self.low = v
        for _ in range(RANGE_BITS // 8 + 1):
            self._shift_low()
        if self._have_cache:   # the last window byte is still cached
            self._out.append(self._cache)
        nbytes = (nbits + 7) >> 3
        assert all(b == 0 for b in self._out[nbytes:]), "non-zero byte beyond payload"
        return BitString(bytes(self._out[:nbytes]), nbits)


class RangeDecoder:
    """Mirror of RangeEncoder.

    Construct with a pull() callable returning one byte per call (return
    0 past the end of data), or use from_bytes / from_reader.  Decode a
    symbol in two steps: decode_target(total) yields a value in
    [0, total); look up which table slot contains it, then commit that
    slot with decode_commit.
    """

    def __init__(self, pull: Callable[[], int]):
        self._pull = pull
        self.range = MASK
        self.value = 0
        for _ in range(RANGE_BITS // 8):
            self.value = (self.value << 8) | (pull() & 0xFF)
        self._target: tuple[int, int] | None = None   # (total, target)

    @classmethod
    def from_bytes(cls, data: bytes) -> "RangeDecoder":
        return cls.from_reader(BitReader(data))

    @classmethod
    def from_reader(cls, reader: BitReader) -> "RangeDecoder":
        return cls(reader.read_byte_padded)

    def decode_target(self, total: int) -> int:
        if not 1 <= total <= TOTAL_MAX:
            raise ValueError(f"total must be in [1, {TOTAL_MAX}], got {total}")
        q = self.range // total
        t = self.value // q
        if t >= total:   # remainder zone belongs to the top symbol
            t = total - 1
        self._target = (total, t)
        return t

    def decode_commit(self, iv: FreqInterval) -> None:
        _check_interval(iv)
        if self._target is None or self._target[0] != iv.total:
            t = self.decode_target(iv.total)
        else:
            t = self._target[1]
        if not iv.cum <= t < iv.cum + iv.freq:
            raise ValueError("interval does not contain the decoded target")
        self._target = None
        q = self.range // iv.total
        self.value -= q * iv.cum
        if iv.cum + iv.freq == iv.total:
            self.range -= q * iv.cum
        else:
            self.range = q * iv.freq
        while self.range < TOP:
            self.value = ((self.value << 8) | (self._pull() & 0xFF)) & MASK
            self.range <<= 8
