"""Self-delimiting Fibonacci code for positive integers.

A codeword is the Zeckendorf representation of n written least
significant digit first (digit for F(2)=1 first, then F(3)=2, F(4)=3,
F(5)=5, ...) up to the largest Fibonacci number used, followed by a
single 1 as terminator.  Zeckendorf representations never use two
consecutive Fibonacci numbers, so "11" occurs exactly once, at the end,
which makes the code prefix-free:

    1 -> 11      4 -> 1011      7 -> 01011
    2 -> 011     5 -> 00011     8 -> 000011
    3 -> 0011    6 -> 10011    12 -> 101011
"""

from __future__ import annotations

from bisect import bisect_right

from .bits import BitReader, BitString
from .errors import CorruptStreamError

# _FIBS[i] = F(i + 2): 1, 2, 3, 5, 8, ... past 2**64
_FIBS = [1, 2]
while _FIBS[-1] < 1 << 64:
    _FIBS.append(_FIBS[-1] + _FIBS[-2])
# F(95): the codeword of any n from here needs a digit past _FIBS, which
# read_fib refuses
_LIMIT = _FIBS[-1] + _FIBS[-2]


def _top(n: int) -> int:
    """The index in _FIBS of the largest Fibonacci number at most n."""
    if n < 1:
        raise ValueError("Fibonacci code is defined for n >= 1")
    if n >= _LIMIT:
        raise ValueError(f"Fibonacci code is supported for n < {_LIMIT}")
    return bisect_right(_FIBS, n) - 1


def fib_encode(n: int) -> str:
    """Codeword for 1 <= n < F(95) as a string of '0'/'1'."""
    top = _top(n)
    digits = ["0"] * (top + 1)
    rem = n
    for i in range(top, -1, -1):
        if _FIBS[i] <= rem:
            digits[i] = "1"
            rem -= _FIBS[i]
    return "".join(digits) + "1"


def fib_length(n: int) -> int:
    """Codeword length in bits, without building the codeword."""
    return _top(n) + 2


def fib_decode(bits: str) -> tuple[int, int]:
    """Decode one codeword from the front of bits.

    Returns (n, bits consumed).  Raises ValueError if bits holds a
    character other than 0 and 1, TruncationError if it ends before the
    11 terminator.
    """
    reader = BitReader(BitString.from_str(bits).data)
    return read_fib(reader), reader.bit_position


def write_fib(writer, n: int) -> None:
    code = fib_encode(n)
    writer.write_bits(int(code, 2), len(code))


def read_fib(reader: BitReader) -> int:
    """Consume one codeword from a BitReader."""
    acc = 0
    prev = 0
    i = 0
    while True:
        b = reader.read_bit()
        if b and prev:
            return acc
        if b:
            if i >= len(_FIBS):
                raise CorruptStreamError("Fibonacci codeword exceeds the supported range")
            acc += _FIBS[i]
        prev = b
        i += 1
