"""Container format: header codec, framing, end-to-end, corruption handling."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msetzip.bits import BitString
from msetzip.container import (
    MAGIC,
    CompressResult,
    compress,
    compress_tree_detail,
    decompress,
    parse_header,
    serialize_header,
)
from msetzip.errors import (
    CorruptStreamError,
    FormatError,
    MsetzipError,
)
from msetzip.fibcode import fib_encode, fib_length
from msetzip.models import (
    FibTerminatorDetector,
    FixedLengthDetector,
    GeometricLength,
    PointLength,
    UniformLength,
)
from msetzip.msettree import MultisetTree
from msetzip.treecodec import (
    BetaBinomialFamily,
    BinomialFamily,
    CodecParams,
    FixedRegime,
    GeneralRegime,
    SelfDelimitingRegime,
)

HALF = Fraction(1, 2)

REGIMES = [
    FixedRegime(1),
    FixedRegime(160),
    FixedRegime(65535),
    SelfDelimitingRegime(FibTerminatorDetector()),
    SelfDelimitingRegime(FixedLengthDetector(7)),
    GeneralRegime(PointLength(12)),
    GeneralRegime(UniformLength(0, 9)),
    GeneralRegime(GeometricLength(Fraction(3, 10))),
]

FAMILIES = [
    BinomialFamily(HALF),
    BinomialFamily(Fraction(9, 10)),
    BetaBinomialFamily(HALF, HALF),
    BetaBinomialFamily(Fraction(7, 3), Fraction(11, 5)),
]


class TestHeader:
    @pytest.mark.parametrize("regime", REGIMES, ids=repr)
    @pytest.mark.parametrize("family", FAMILIES, ids=repr)
    def test_round_trip(self, regime, family):
        params = CodecParams(regime, family)
        blob = serialize_header(params)
        parsed, consumed = parse_header(blob + b"trailing payload bytes")
        assert parsed == params
        assert consumed == len(blob)

    def test_bad_magic(self):
        blob = serialize_header(CodecParams(FixedRegime(3)))
        with pytest.raises(FormatError):
            parse_header(b"XSZ1" + blob[4:])

    def test_bad_version(self):
        blob = bytearray(serialize_header(CodecParams(FixedRegime(3))))
        blob[4] = 99
        with pytest.raises(FormatError):
            parse_header(bytes(blob))

    @pytest.mark.parametrize("pos", [5, 6])
    def test_unknown_ids(self, pos):
        blob = bytearray(serialize_header(CodecParams(FixedRegime(3))))
        blob[pos] = 200
        with pytest.raises(FormatError):
            parse_header(bytes(blob))

    def test_truncated_header(self):
        blob = serialize_header(CodecParams(GeneralRegime(UniformLength(2, 5))))
        for cut in range(len(blob)):
            with pytest.raises(FormatError):
                parse_header(blob[:cut])

    def test_zero_denominator(self):
        blob = bytearray(serialize_header(CodecParams(FixedRegime(3))))
        blob[-4:] = (0).to_bytes(4, "big")  # theta's denominator
        with pytest.raises(FormatError):
            parse_header(bytes(blob))

    def test_theta_above_one(self):
        blob = bytearray(serialize_header(CodecParams(FixedRegime(3), BinomialFamily(HALF))))
        blob[-8:] = (3).to_bytes(4, "big") + (2).to_bytes(4, "big")
        with pytest.raises(FormatError):
            parse_header(bytes(blob))

    def test_unserializable_params_rejected_up_front(self):
        class OddDetector:
            def is_complete(self, prefix):
                return len(prefix) == 2

            def first_complete(self, value, nbits):
                return 2 if nbits >= 2 else None

        with pytest.raises(ValueError):
            serialize_header(CodecParams(SelfDelimitingRegime(OddDetector())))

    def test_wide_rational_rejected(self):
        with pytest.raises(ValueError):
            serialize_header(
                CodecParams(FixedRegime(3), BinomialFamily(Fraction(1, 1 << 33)))
            )

    @pytest.mark.parametrize(
        "params, exact",
        [
            (CodecParams(FixedRegime(4), BinomialFamily(0.5)),
             CodecParams(FixedRegime(4), BinomialFamily(Fraction(1, 2)))),
            (CodecParams(GeneralRegime(GeometricLength(0.25)), BetaBinomialFamily(2, 0.75)),
             CodecParams(GeneralRegime(GeometricLength(Fraction(1, 4))),
                         BetaBinomialFamily(Fraction(2), Fraction(3, 4)))),
        ],
        ids=["binomial", "geometric-betabin"],
    )
    def test_float_and_int_rationals_round_trip(self, params, exact):
        # written by their exact ratios: the same bytes as the Fractions
        members = ["0101", "0101", "1100", "0011"]
        data = compress(members, params)
        assert data == compress(members, exact)
        assert decompress(data) == sorted(map(BitString.from_str, members))
        assert parse_header(data)[0] == exact

    def test_float_rational_that_does_not_fit_rejected(self):
        # 0.3's exact ratio has a 2**54 denominator
        with pytest.raises(ValueError, match="does not fit in u32/u32"):
            serialize_header(CodecParams(FixedRegime(3), BinomialFamily(0.3)))

    @pytest.mark.parametrize(
        "regime",
        [
            FixedRegime(70000),
            SelfDelimitingRegime(FixedLengthDetector(70000)),
            GeneralRegime(PointLength(70000)),
            GeneralRegime(UniformLength(0, 70000)),
        ],
        ids=repr,
    )
    def test_wide_u16_rejected(self, regime):
        with pytest.raises(ValueError, match="does not fit in u16"):
            serialize_header(CodecParams(regime))

    # (params, byte offset, replacement): each patch puts one field out of
    # the range its parameter class accepts.
    _OUT_OF_RANGE = {
        "fixed L = 0": (CodecParams(FixedRegime(3)), 7, b"\x00\x00"),
        "detector L = 0": (
            CodecParams(SelfDelimitingRegime(FixedLengthDetector(7))), 8, b"\x00\x00"),
        "uniform lo > hi": (
            CodecParams(GeneralRegime(UniformLength(2, 5))), 8, b"\x00\x06"),
        "geometric p = 0": (
            CodecParams(GeneralRegime(GeometricLength(Fraction(3, 10)))), 8, bytes(4)),
        "geometric p = 3/2": (
            CodecParams(GeneralRegime(GeometricLength(Fraction(3, 10)))), 8,
            (3).to_bytes(4, "big") + (2).to_bytes(4, "big")),
        "alpha = 0": (CodecParams(FixedRegime(3), BetaBinomialFamily()), -16, bytes(4)),
        "beta = 0": (CodecParams(FixedRegime(3), BetaBinomialFamily()), -8, bytes(4)),
    }

    @pytest.mark.parametrize("case", list(_OUT_OF_RANGE))
    def test_out_of_range_field_rejected(self, case):
        params, pos, raw = self._OUT_OF_RANGE[case]
        blob = bytearray(serialize_header(params))
        blob[pos:pos + len(raw)] = raw
        with pytest.raises(FormatError):
            parse_header(bytes(blob))

    @pytest.mark.parametrize("regime", REGIMES, ids=repr)
    def test_byte_sweep_parses_or_raises_format_error(self, regime):
        for family in FAMILIES:
            blob = serialize_header(CodecParams(regime, family))
            for pos in range(len(blob)):
                for value in (0, 1, 2, 0x7F, 0x80, 0xFF):
                    patched = blob[:pos] + bytes([value]) + blob[pos + 1:]
                    try:
                        params, consumed = parse_header(patched)
                    except FormatError:
                        continue
                    assert isinstance(params, CodecParams) and consumed <= len(patched)


class TestFraming:
    def test_empty_multiset_frozen_bytes(self):
        params = CodecParams(FixedRegime(160), BinomialFamily(HALF))
        data = compress([], params)
        # header, then Fibonacci(0 + 1) = "11" padded out to one byte
        assert data == serialize_header(params) + b"\xc0"
        assert decompress(data) == []

    def test_detail_accounting(self):
        params = CodecParams(FixedRegime(3))
        members = ["000", "000", "010", "011", "101", "110", "111"]
        res = compress_tree_detail(members, params)
        assert isinstance(res, CompressResult)
        assert res.header_bits == 8 * len(serialize_header(params))
        assert res.n_header_bits == fib_length(8)
        assert res.total_bits == res.header_bits + res.n_header_bits + res.payload_bits
        assert len(res.data) * 8 - res.total_bits < 8  # only pad bits remain
        assert res.data.startswith(MAGIC)

    def test_compress_accepts_iterables(self):
        params = CodecParams(FixedRegime(2))
        a = compress(["01", "01", "10"], params)
        b = compress(MultisetTree.build(["01", "10", "01"]), params)
        assert a == b

    def test_decompress_is_lexicographic(self):
        params = CodecParams(GeneralRegime(UniformLength(0, 3)), BetaBinomialFamily())
        members = ["11", "0", "000", "0", "", "101"]
        got = decompress(compress(members, params))
        assert got == sorted((BitString.from_str(m) for m in members))

    def test_truncation_inside_n_field(self):
        params = CodecParams(FixedRegime(160))
        data = compress([], params)
        with pytest.raises(CorruptStreamError):
            decompress(data[:-1])

    def test_absurd_member_count_rejected(self):
        # splice a huge Fibonacci-coded N after a valid header; must be
        # refused before any table is allocated
        from msetzip.bits import BitWriter
        from msetzip.fibcode import write_fib

        params = CodecParams(FixedRegime(3))
        w = BitWriter()
        w.write_bytes(serialize_header(params))
        write_fib(w, (1 << 30) + 1)
        with pytest.raises(CorruptStreamError):
            decompress(w.getvalue())

    def test_oversized_multiset_rejected_at_compress(self):
        tree = MultisetTree()
        tree.root.count = 1 << 18  # forged count just past the capacity
        with pytest.raises(ValueError):
            compress(tree, CodecParams(FixedRegime(3)))

    def test_params_survive_the_trip(self):
        params = CodecParams(
            GeneralRegime(GeometricLength(Fraction(2, 5))),
            BetaBinomialFamily(Fraction(1, 3), Fraction(4)),
        )
        blob = compress(["01", "1", "0010"], params)
        assert parse_header(blob)[0] == params
        assert len(decompress(blob)) == 3


class TestEndToEnd:
    @pytest.mark.parametrize("family", FAMILIES, ids=repr)
    def test_regime_grid(self, family):
        fixtures = [
            (FixedRegime(5), ["01101", "01101", "00000", "11111"]),
            (SelfDelimitingRegime(FibTerminatorDetector()), ["11", "011", "0011", "11"]),
            (GeneralRegime(UniformLength(0, 4)), ["", "0", "01", "0110", ""]),
        ]
        for regime, members in fixtures:
            params = CodecParams(regime, family)
            got = decompress(compress(members, params))
            assert sorted(m.to_str() for m in got) == sorted(members)

    def test_payload_order_invariance(self):
        params = CodecParams(FixedRegime(4), BetaBinomialFamily())
        members = ["0110", "1001", "0110", "0000", "1111", "1001"]
        rng = random.Random(3)
        blobs = set()
        for _ in range(10):
            shuffled = list(members)
            rng.shuffle(shuffled)
            blobs.add(compress(shuffled, params))
        assert len(blobs) == 1


# name -> (regime, strategy for one member it can code)
CODABLE = {
    "fixed": (FixedRegime(6), st.text("01", min_size=6, max_size=6)),
    "fib": (SelfDelimitingRegime(FibTerminatorDetector()), st.integers(1, 300).map(fib_encode)),
    "uniform": (GeneralRegime(UniformLength(0, 8)), st.text("01", max_size=8)),
    "geometric": (
        GeneralRegime(GeometricLength(Fraction(1, 3))),
        st.text("01", min_size=1, max_size=12),
    ),
}


class TestMemberOrder:
    @pytest.mark.parametrize(
        "family",
        [BinomialFamily(Fraction(t)) for t in ("0", "1/3", "1/2", "1")] + [BetaBinomialFamily()],
        ids=repr,
    )
    @pytest.mark.parametrize("name", list(CODABLE))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_input_order_and_tree_give_one_container(self, name, family, data):
        regime, member = CODABLE[name]
        theta = getattr(family, "theta", None)
        if theta in (0, 1):
            # a degenerate bias codes one bit value only
            if name == "fib":
                # every codeword ends in 11, so theta = 0 codes none of them
                member = st.just("11") if theta == 1 else None
            else:
                member = member.map(lambda m: str(theta) * len(m))
        pool = data.draw(st.lists(member, max_size=6)) if member is not None else []
        members = data.draw(st.lists(st.sampled_from(pool), max_size=25) if pool else st.just([]))
        shuffled = data.draw(st.permutations(members))
        params = CodecParams(regime, family)
        blob = compress(members, params)
        assert compress(shuffled, params) == blob
        assert compress_tree_detail(MultisetTree.build(members), params).data == blob
        assert [m.to_str() for m in decompress(blob)] == sorted(members)


def test_round_trip_builds_no_trie(monkeypatch):
    from msetzip import msettree

    def refuse(self, *args, **kwargs):
        raise AssertionError("a TreeNode was built")

    monkeypatch.setattr(msettree.TreeNode, "__init__", refuse)
    cases = [
        (FixedRegime(4), ["0110", "0110", "1101"]),
        (GeneralRegime(UniformLength(0, 4)), ["", "0", "0", "0110", "10", "1101"]),
    ]
    for regime, members in cases:
        params = CodecParams(regime, BetaBinomialFamily())
        assert [m.to_str() for m in decompress(compress(members, params))] == sorted(members)


class TestCorruption:
    """Arbitrary damage must surface as MsetzipError or decode cleanly."""

    def _assault(self, data: bytes, rng: random.Random, trials: int):
        for _ in range(trials):
            blob = bytearray(data)
            kind = rng.randrange(3)
            if kind == 0:
                blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            elif kind == 1:
                blob[rng.randrange(len(blob))] = rng.randrange(256)
            else:
                blob = blob[: rng.randrange(len(blob))]
            try:
                decompress(bytes(blob))
            except MsetzipError:
                pass  # any library error type is acceptable; crashes are not

    def test_fixed_regime_fuzz(self):
        params = CodecParams(FixedRegime(6), BinomialFamily(Fraction(1, 3)))
        members = ["".join(random.Random(s).choices("01", k=6)) for s in range(12)]
        self._assault(compress(members, params), random.Random(21), 250)

    def test_selfdelim_fuzz(self):
        from msetzip.fibcode import fib_encode

        params = CodecParams(SelfDelimitingRegime(FibTerminatorDetector()), BetaBinomialFamily())
        members = [fib_encode(v) for v in (1, 2, 3, 5, 8, 13, 21, 34)]
        self._assault(compress(members, params), random.Random(22), 150)

    def test_general_geometric_fuzz(self):
        params = CodecParams(GeneralRegime(GeometricLength(Fraction(1, 4))))
        members = ["1", "01", "001", "0001", "1", "11"]
        self._assault(compress(members, params), random.Random(23), 150)
