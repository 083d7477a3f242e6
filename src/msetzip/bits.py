"""Bit-level primitives: immutable bit strings plus MSB-first stream I/O.

Everything in this package that touches raw bits goes through the three
classes here.  Bit order is MSB-first throughout: bit i of a BitString
lives in byte i >> 3 at shift 7 - (i & 7), and a BitWriter fills each
output byte from its most significant bit down.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator

from ._frozen import Frozen
from .errors import TruncationError

# byte 0 -> ASCII '0', any other byte -> ASCII '1'
_DIGITS = b"0" + b"1" * 255
# ASCII '0'/'1' digits to the bit values 0/1
_VALUES = bytes.maketrans(b"01", b"\0\1")


def marked_bits(marked: int) -> bytes:
    """The bits of marked below its top 1 bit, first bit first, as bytes of
    0/1 values: the count bits of 1 << count | bits, count >= 0.  A loop
    over them reads one small int per bit, cheaper in CPython than a shift
    of the whole int per bit."""
    return format(marked, "b").encode()[1:].translate(_VALUES)


@total_ordering
class BitString(Frozen):
    """An immutable sequence of bits backed by (bytes, bit length).

    Trailing pad bits in the last byte are forced to zero on construction,
    so equal bit sequences are equal objects and hash alike.  Ordering is
    lexicographic with a proper prefix sorting before its extensions
    ("0" < "00" < "01" < "1").
    """

    __slots__ = ("data", "nbits")

    def __init__(self, data: bytes, nbits: int):
        nbytes = (nbits + 7) >> 3
        if nbits < 0 or len(data) < nbytes:
            raise ValueError("bit length does not fit the buffer")
        data = bytes(data[:nbytes])
        tail = nbits & 7
        if tail and data and data[-1] & (0xFF >> tail):
            # canonicalize: zero the pad bits so eq/hash see one representation
            data = data[:-1] + bytes([data[-1] & (0xFF << (8 - tail)) & 0xFF])
        _set_data(self, data)
        _set_nbits(self, nbits)

    @classmethod
    def from_str(cls, s: str) -> "BitString":
        if s.strip("01"):
            raise ValueError(f"bit string {s[:40]!r} has characters other than 0 and 1")
        return cls._from_digits(s)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        """Any truthy item is a 1 bit.  A bytes or bytearray is packed in C,
        each nonzero byte a 1 bit, without a Python step per item.  Text is
        refused: its digits would all be truthy; from_str reads it."""
        if bits.__class__ is not bytearray and not isinstance(bits, (bytes, bytearray)):
            if isinstance(bits, str):
                raise TypeError("from_bits takes bit values, not text; use BitString.from_str")
            bits = bytes(map(bool, bits))
        # _from_digits inlined: a decoder builds one BitString per member copy
        nbits = len(bits)
        value = int(bits.translate(_DIGITS), 2) << (-nbits & 7) if nbits else 0
        bs = object.__new__(cls)
        _set_data(bs, value.to_bytes((nbits + 7) >> 3, "big"))
        _set_nbits(bs, nbits)
        return bs

    @classmethod
    def _from_digits(cls, digits) -> "BitString":
        """The bits of ASCII 0/1 digits, a str or bytes, packed by int() in C.
        The packed bytes are canonical, exactly (nbits + 7) >> 3 of them
        with zero pad bits, so __init__'s checks are not run again."""
        nbits = len(digits)
        value = int(digits, 2) << (-nbits & 7) if nbits else 0
        bs = object.__new__(cls)
        _set_data(bs, value.to_bytes((nbits + 7) >> 3, "big"))
        _set_nbits(bs, nbits)
        return bs

    def bit(self, i: int) -> int:
        if not 0 <= i < self.nbits:
            raise IndexError("bit index out of range")
        return (self.data[i >> 3] >> (7 - (i & 7))) & 1

    def bits(self) -> Iterator[int]:
        data = self.data
        for i in range(self.nbits):
            yield (data[i >> 3] >> (7 - (i & 7))) & 1

    def to_str(self) -> str:
        nbits = self.nbits
        value = int.from_bytes(self.data, "big") >> (-nbits & 7)  # pad bits are zero
        return format(value, f"0{nbits}b") if nbits else ""

    def __len__(self) -> int:
        return self.nbits

    def __lt__(self, other: object) -> bool:
        # Pad bits are zero, so comparing (data, nbits) is the text order: a
        # byte string sorts before its extensions, and equal bytes differ
        # only in how many of their trailing zeros are bits.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.data, self.nbits) < (other.data, other.nbits)

    def __repr__(self) -> str:
        if self.nbits <= 64:
            return f"BitString('{self.to_str()}')"
        return f"BitString(<{self.nbits} bits>)"


# The slots' own descriptors set the fields of a frozen BitString, past its
# __setattr__ and without object.__setattr__'s lookup of the name.
_set_data = BitString.data.__set__
_set_nbits = BitString.nbits.__set__


def as_bitstring(x) -> BitString:
    """Coerce a str of 0/1 characters or a BitString to a BitString."""
    if isinstance(x, BitString):
        return x
    if isinstance(x, str):
        return BitString.from_str(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a bit string")


class BitWriter:
    """Append-only MSB-first bit sink."""

    def __init__(self):
        self._buf = bytearray()
        self._acc = 0      # pending bits, right-aligned
        self._nacc = 0     # number of pending bits, always < 8

    @property
    def bit_length(self) -> int:
        return 8 * len(self._buf) + self._nacc

    def write_bit(self, b: int) -> None:
        self.write_bits(1 if b else 0, 1)

    def write_bits(self, value: int, n: int) -> None:
        """Write the n low bits of value, most significant first."""
        if n < 0 or value < 0 or value >> n:
            raise ValueError("value does not fit in n bits")
        acc = (self._acc << n) | value
        nacc = self._nacc + n
        while nacc >= 8:
            nacc -= 8
            self._buf.append((acc >> nacc) & 0xFF)
        self._acc = acc & ((1 << nacc) - 1)
        self._nacc = nacc

    def write_bytes(self, data: bytes) -> None:
        """Write data's bytes, each most significant bit first, after the
        bits already written.  Unaligned, the pending bits and data are
        shifted as one int: the mirror of BitReader.read_rest."""
        nacc, n = self._nacc, len(data)
        acc = (self._acc << 8 * n) | int.from_bytes(data, "big")
        self._buf += (acc >> nacc).to_bytes(n, "big")
        self._acc = acc & ((1 << nacc) - 1)

    def write_bitstring(self, bs: BitString) -> None:
        whole, tail = divmod(bs.nbits, 8)
        self.write_bytes(bs.data[:whole])
        if tail:
            self.write_bits(bs.data[whole] >> (8 - tail), tail)

    def getvalue(self) -> bytes:
        """Return all bits written so far, zero-padded to a whole byte."""
        out = bytes(self._buf)
        if self._nacc:
            out += bytes([(self._acc << (8 - self._nacc)) & 0xFF])
        return out


class BitReader:
    """MSB-first bit source over a bytes object.

    read_bit/read_bits raise TruncationError past the end; read_rest,
    the buffer the range decoder reads, is zero-padded to whole bytes, and
    the decoder reads zeros past its end, matching the encoder's right to
    drop trailing zeros.
    """

    def __init__(self, data: bytes, start_bit: int = 0):
        self._data = data
        self._nbits = 8 * len(data)
        if not 0 <= start_bit <= self._nbits:
            raise ValueError("start bit out of range")
        self._pos = start_bit

    @property
    def bit_position(self) -> int:
        return self._pos

    @property
    def bits_remaining(self) -> int:
        return self._nbits - self._pos

    def read_bit(self) -> int:
        pos = self._pos
        if pos >= self._nbits:
            raise TruncationError("bit stream exhausted")
        self._pos = pos + 1
        return (self._data[pos >> 3] >> (7 - (pos & 7))) & 1

    def read_bits(self, n: int) -> int:
        if n > self._nbits - self._pos:
            raise TruncationError("bit stream exhausted")
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v

    def read_rest(self) -> bytes:
        """The unread bits moved to start a byte, zero-padded to whole bytes."""
        i, off = self._pos >> 3, self._pos & 7
        self._pos = max(self._pos, self._nbits)
        rest = self._data[i:]
        if off:
            n = len(rest)
            rest = ((int.from_bytes(rest, "big") << off) & ~(-1 << 8 * n)).to_bytes(n, "big")
        return rest
