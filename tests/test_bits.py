"""BitString / BitWriter / BitReader."""

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from msetzip import CodecParams, FixedRegime, compress, decompress
from msetzip.bits import BitReader, BitString, BitWriter, as_bitstring
from msetzip.errors import TruncationError
from msetzip.msettree import MultisetTree

bit_lists = st.lists(st.integers(0, 1), max_size=200)
# lengths up to 1000 bits, every whole-byte length among them drawn often
pack_lengths = st.one_of(st.integers(0, 125).map(lambda k: 8 * k), st.integers(0, 1000))


def reference_pack(bits) -> bytes:
    """MSB-first packing, one Python step per bit; a truthy item is a 1."""
    buf = bytearray((len(bits) + 7) >> 3)
    for i, b in enumerate(bits):
        if b:
            buf[i >> 3] |= 0x80 >> (i & 7)
    return bytes(buf)


class TestBitString:
    def test_str_round_trip(self):
        for s in ["", "0", "1", "01011", "1" * 17, "0" * 9 + "1"]:
            assert BitString.from_str(s).to_str() == s

    @pytest.mark.parametrize("nbits", range(131))
    def test_to_str_matches_its_bits(self, nbits):
        # the bytes carry set pad bits, which the text must not show
        rng = random.Random(nbits)
        for data in (bytes(17), b"\xff" * 17, rng.randbytes(17)):
            bs = BitString(data, nbits)
            assert bs.to_str() == "".join(map(str, bs.bits()))

    def test_immutable(self):
        bs = BitString.from_str("0110")
        with pytest.raises(AttributeError):
            bs.nbits = 3
        with pytest.raises(AttributeError):
            bs.data = b"\xff"
        assert bs == BitString.from_str("0110")

    def test_copies_and_pickles_are_equal(self):
        rng = random.Random(0)
        members = [BitString(rng.randbytes(21), n) for n in (0, 1, 7, 8, 9, 161)]
        members += decompress(compress(["0110", "1101", "0110"], CodecParams(FixedRegime(4))))
        for bs in members:
            copies = [copy.copy(bs), copy.deepcopy(bs)]
            copies += [pickle.loads(pickle.dumps(bs, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
            for c in copies:
                assert type(c) is BitString and c == bs and hash(c) == hash(bs)
                assert (c.data, c.nbits) == (bs.data, bs.nbits)

    def test_repr(self):
        assert repr(BitString.from_str("")) == "BitString('')"
        assert repr(BitString.from_str("0110")) == "BitString('0110')"
        assert repr(BitString.from_str("1" * 64)) == f"BitString('{'1' * 64}')"
        assert repr(BitString.from_str("1" * 65)) == "BitString(<65 bits>)"

    def test_pad_bits_canonicalized(self):
        # same bits, one constructed with garbage in the pad region
        a = BitString(b"\xa0", 3)
        b = BitString(b"\xbf", 3)
        assert a == b and hash(a) == hash(b)
        assert a.data == b"\xa0"

    def test_bit_indexing(self):
        bs = BitString.from_str("10100001")
        assert [bs.bit(i) for i in range(8)] == [1, 0, 1, 0, 0, 0, 0, 1]
        with pytest.raises(IndexError):
            bs.bit(8)
        with pytest.raises(IndexError):
            bs.bit(-1)

    def test_prefix_sorts_first(self):
        order = ["", "0", "00", "000", "001", "01", "1", "10", "11"]
        bss = [BitString.from_str(s) for s in order]
        assert sorted(bss, key=lambda b: b.to_str()) == bss
        for a, b in zip(bss, bss[1:]):
            assert a < b

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BitString(b"", 1)
        with pytest.raises(ValueError):
            BitString(b"\x00", -1)

    @given(bit_lists)
    def test_from_bits_round_trip(self, bits):
        bs = BitString.from_bits(bits)
        assert bs.nbits == len(bits)
        assert list(bs.bits()) == bits

    @given(pack_lengths, st.integers(0, 2**32))
    def test_packing_matches_the_reference(self, n, seed):
        rng = random.Random(seed)
        bits = [rng.choice((0, 1, False, True, 2, -1)) for _ in range(n)]
        bs = BitString.from_bits(bits)
        assert (bs.data, bs.nbits) == (reference_pack(bits), n)
        assert BitString.from_str("".join("1" if b else "0" for b in bits)) == bs

    @given(st.one_of(st.binary(max_size=300), st.binary(max_size=300).map(bytearray)))
    def test_bytes_pack_like_the_list_of_their_values(self, raw):
        bs = BitString.from_bits(raw)
        assert bs == BitString.from_bits(list(raw))
        assert bs == BitString.from_str("".join("1" if b else "0" for b in raw))
        assert hash(bs) == hash(BitString.from_bits(list(raw)))
        assert (bs.data, bs.nbits) == (reference_pack(raw), len(raw))
        # the bytes come out canonical, with zero pad bits
        assert bs.data == BitString(bs.data, bs.nbits).data

    def test_text_is_refused(self):
        # every digit of "0110" is a truthy item, so it would read as 1111
        for text in ("0110", "", "1"):
            with pytest.raises(TypeError, match="from_str"):
                BitString.from_bits(text)
        assert BitString.from_str("0110") == BitString.from_bits([0, 1, 1, 0])

    @given(st.binary(max_size=20), st.binary(max_size=20))
    def test_bytes_order_like_their_text(self, r, s):
        a, b = BitString.from_bits(r), BitString.from_bits(bytearray(s))
        x, y = ("".join("1" if c else "0" for c in raw) for raw in (r, s))
        assert (a < b, a <= b) == (x < y, x <= y)

    @given(bit_lists, bit_lists)
    def test_ordering_matches_strings(self, a, b):
        x, y = BitString.from_bits(a), BitString.from_bits(b)
        assert (x < y) == (x.to_str() < y.to_str())

    def test_ordering_is_the_text_order_up_to_11_bits(self):
        # all 4,095 strings of at most 11 bits, so every pad length and
        # every prefix relation within two bytes
        texts = ["".join(t) for n in range(12) for t in itertools.product("01", repeat=n)]
        ordered = sorted(BitString.from_str(t) for t in reversed(texts))
        assert [b.to_str() for b in ordered] == sorted(texts)
        for a, b in zip(ordered, ordered[1:]):
            assert a < b and a <= b and not b < a and not b <= a

    @given(st.binary(max_size=20), st.binary(max_size=20))
    def test_greater_is_the_text_order_too(self, r, s):
        a, b = BitString.from_bits(r), BitString.from_bits(bytearray(s))
        x, y = ("".join("1" if c else "0" for c in raw) for raw in (r, s))
        assert (a > b, a >= b) == (x > y, x >= y)

    def test_greater_is_the_text_order_up_to_11_bits(self):
        texts = ["".join(t) for n in range(12) for t in itertools.product("01", repeat=n)]
        ordered = [BitString.from_str(t) for t in sorted(texts)]
        for a, b in zip(ordered, ordered[1:]):
            assert b > a and b >= a and not a > b and not a >= b

    def test_as_bitstring(self):
        assert as_bitstring("101").to_str() == "101"
        bs = BitString.from_str("01")
        assert as_bitstring(bs) is bs
        with pytest.raises(TypeError):
            as_bitstring(5)

    @pytest.mark.parametrize("text", ["01x1", "0 1"])
    def test_from_str_rejects_other_characters(self, text):
        with pytest.raises(ValueError):
            BitString.from_str(text)

    def test_tree_build_rejects_other_characters(self):
        with pytest.raises(ValueError):
            MultisetTree.build(["01x1"])


class TestBitWriter:
    def test_msb_first_packing(self):
        w = BitWriter()
        w.write_bits(0b101, 3)
        w.write_bits(0b00001, 5)
        assert w.getvalue() == bytes([0b10100001])

    def test_partial_byte_padded(self):
        w = BitWriter()
        w.write_bit(1)
        assert w.bit_length == 1
        assert w.getvalue() == b"\x80"

    def test_write_bytes_aligned_and_not(self):
        w = BitWriter()
        w.write_bytes(b"\xab\xcd")
        assert w.getvalue() == b"\xab\xcd"
        w2 = BitWriter()
        w2.write_bit(0)
        w2.write_bytes(b"\xff")
        assert w2.getvalue() == bytes([0b01111111, 0b10000000])

    @given(st.integers(0, 7), st.integers(0, 255), st.binary(max_size=40))
    def test_write_bytes_matches_bytewise_writes(self, offset, head, data):
        w, ref = BitWriter(), BitWriter()
        for x in (w, ref):
            x.write_bits(head >> (8 - offset), offset)
        w.write_bytes(data)
        for byte in data:
            ref.write_bits(byte, 8)
        assert (w.getvalue(), w.bit_length) == (ref.getvalue(), ref.bit_length)
        w.write_bits(1, 1)  # the pending bits carry on as before
        ref.write_bits(1, 1)
        assert w.getvalue() == ref.getvalue()

    def test_value_must_fit(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(4, 2)

    @given(bit_lists)
    def test_round_trip_through_reader(self, bits):
        w = BitWriter()
        for b in bits:
            w.write_bit(b)
        r = BitReader(w.getvalue())
        assert [r.read_bit() for _ in range(len(bits))] == bits

    @given(bit_lists, bit_lists)
    def test_write_bitstring_preserves_alignment(self, head, body):
        w = BitWriter()
        for b in head:
            w.write_bit(b)
        w.write_bitstring(BitString.from_bits(body))
        r = BitReader(w.getvalue(), start_bit=len(head))
        assert [r.read_bit() for _ in range(len(body))] == body


class TestBitReader:
    def test_truncation_raises(self):
        r = BitReader(b"\xff")
        r.read_bits(8)
        with pytest.raises(TruncationError):
            r.read_bit()
        with pytest.raises(TruncationError):
            BitReader(b"").read_bits(1)

    def test_read_bits_value(self):
        r = BitReader(bytes([0b11010010]))
        assert r.read_bits(3) == 0b110
        assert r.read_bits(5) == 0b10010

    def test_start_bit_offset(self):
        r = BitReader(bytes([0b00000001, 0b10000000]), start_bit=7)
        assert r.read_bits(2) == 0b11
        assert r.bit_position == 9
        assert r.bits_remaining == 7

    @pytest.mark.parametrize("start", [-1, 17])
    def test_start_bit_outside_the_data_rejected(self, start):
        with pytest.raises(ValueError):
            BitReader(b"\x12\x34", start_bit=start)

    def test_read_rest_aligns_the_unread_bits(self):
        r = BitReader(bytes([0b10101010, 0b11000001]), start_bit=4)
        assert r.read_rest() == bytes([0b10101100, 0b00010000])
        assert r.bits_remaining == 0
        assert r.read_rest() == b""
        assert BitReader(b"\x12\x34", start_bit=8).read_rest() == b"\x34"

    @given(st.binary(max_size=12), st.integers(0, 96))
    def test_read_rest_matches_the_padded_reader(self, data, start):
        start = min(start, 8 * len(data))
        rest = BitReader(data, start_bit=start).read_rest()
        padded = BitReader(data + bytes(3), start_bit=start)
        assert list(rest) + [0] * 2 == [padded.read_bits(8) for _ in range(len(rest) + 2)]
