"""Fibonacci (Zeckendorf) integer code."""

import pytest
from hypothesis import given, strategies as st

from msetzip.bits import BitReader, BitWriter
from msetzip.errors import CorruptStreamError, TruncationError
from msetzip.fibcode import fib_decode, fib_encode, fib_length, read_fib, write_fib

# Reference codewords for 1..21, frozen.
CODEWORDS = {
    1: "11",
    2: "011",
    3: "0011",
    4: "1011",
    5: "00011",
    6: "10011",
    7: "01011",
    8: "000011",
    9: "100011",
    10: "010011",
    11: "001011",
    12: "101011",
    13: "0000011",
    14: "1000011",
    15: "0100011",
    16: "0010011",
    17: "1010011",
    18: "0001011",
    19: "1001011",
    20: "0101011",
    21: "00000011",
}


def test_reference_table():
    for n, code in CODEWORDS.items():
        assert fib_encode(n) == code, n
        assert fib_length(n) == len(code), n


def test_round_trip_small():
    for n in range(1, 5000):
        code = fib_encode(n)
        assert fib_decode(code) == (n, len(code))


@given(st.integers(1, 10**12))
def test_round_trip_random(n):
    code = fib_encode(n)
    assert fib_decode(code) == (n, len(code))
    assert fib_length(n) == len(code)


@given(st.integers(1, 10**9))
def test_no_interior_terminator(n):
    code = fib_encode(n)
    assert "11" not in code[:-2]
    assert code.endswith("11")


def test_decode_stops_at_terminator():
    # trailing garbage after the terminator is not consumed
    n, used = fib_decode("011" + "10101")
    assert (n, used) == (2, 3)


def test_codeword_lengths_monotone_in_blocks():
    # lengths are nondecreasing and grow by at most 1
    prev = fib_length(1)
    for n in range(2, 3000):
        cur = fib_length(n)
        assert cur in (prev, prev + 1)
        prev = cur


def test_invalid_inputs():
    for bad in (0, -3):
        with pytest.raises(ValueError):
            fib_encode(bad)
        with pytest.raises(ValueError):
            fib_length(bad)
    with pytest.raises(TruncationError):
        fib_decode("0101")
    with pytest.raises(TruncationError):
        fib_decode("")


F95 = 31940434634990099905


def test_largest_supported_value_round_trips():
    # F(95) - 1 = F(94) + F(92) + ... + F(2), the longest codeword read_fib
    # reads back: 93 digits and the terminator
    code = fib_encode(F95 - 1)
    assert fib_decode(code) == (F95 - 1, 94)
    assert fib_length(F95 - 1) == len(code) == 94
    w = BitWriter()
    write_fib(w, F95 - 1)
    assert read_fib(BitReader(w.getvalue())) == F95 - 1


@pytest.mark.parametrize("n", [F95, F95 + 1, 2**70, 10**40])
def test_values_past_the_table_rejected(n):
    # each used to give a wrong codeword: fib_decode(fib_encode(2**70))
    # was (1, 2)
    with pytest.raises(ValueError):
        fib_encode(n)
    with pytest.raises(ValueError):
        fib_length(n)
    with pytest.raises(ValueError):
        write_fib(BitWriter(), n)


def test_stream_io():
    w = BitWriter()
    values = [1, 2, 3, 100, 12345, 1, 999999]
    for v in values:
        write_fib(w, v)
    r = BitReader(w.getvalue())
    assert [read_fib(r) for _ in values] == values


def test_stream_truncation():
    w = BitWriter()
    w.write_bits(0b0101, 4)
    r = BitReader(w.getvalue())
    # 4 real bits then pad zeros, then end of data: no terminator anywhere
    with pytest.raises(TruncationError):
        read_fib(r)


def test_corrupt_overlong_codeword():
    # a "codeword" with 1-bits far beyond the supported Fibonacci range
    bits = "10" * 120 + "11"
    with pytest.raises(CorruptStreamError):
        fib_decode(bits)


@pytest.mark.parametrize("bits", ["0211", " 11", "abc11"])
def test_decode_rejects_other_characters(bits):
    # each used to decode, reading every character other than 1 as 0
    with pytest.raises(ValueError):
        fib_decode(bits)
