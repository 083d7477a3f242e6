"""Tree codec: round-trips, exact ideal-codelength oracles, optimality.

The oracles recompute multiset probabilities from first principles in
exact rational arithmetic:

  fixed / self-delimiting, binomial family:
      P = (N! / prod m_j!) * prod_w prod_i theta^w_i (1-theta)^(1-w_i)
  general, binomial family:
      P = (N! / prod m_j!) * prod_w [ L(len_w) * prod_i ... ]

and, for the Beta-binomial family, an independent tree walk using the
rising-factorial form of the Beta-binomial pmf.  ideal_codelength must
match -log2 P; the coder's output must land within its guaranteed slack
of the ideal.
"""

import hashlib
import math
import os
import random
import time
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import msetzip
import msetzip.treecodec as treecodec
from msetzip.bits import BitString, as_bitstring, marked_bits
from msetzip.errors import CorruptStreamError, ModelMismatchError
from msetzip.fibcode import fib_encode
from msetzip.models import (
    FibTerminatorDetector,
    FixedLengthDetector,
    GeometricLength,
    PointLength,
    UniformLength,
)
from msetzip.msettree import MultisetTree
from msetzip.rangecoder import RangeDecoder, RangeEncoder
from msetzip.treecodec import (
    BetaBinomialFamily,
    BinomialFamily,
    CodecParams,
    FixedRegime,
    GeneralRegime,
    SelfDelimitingRegime,
    decode_members,
    encode_members,
    ideal_codelength,
)
from test_models import reference_hazard

HALF = Fraction(1, 2)

FAMILIES = [
    BinomialFamily(HALF),
    BinomialFamily(Fraction(1, 3)),
    BinomialFamily(Fraction(9, 10)),
    BetaBinomialFamily(HALF, HALF),
    BetaBinomialFamily(Fraction(2), Fraction(5)),
]


def round_trip(members, params):
    enc = RangeEncoder()
    encode_members(members, params, enc)
    payload = enc.finish()
    dec = RangeDecoder.from_bytes(payload.data)
    out = decode_members(params, len(members), dec)
    assert out == sorted(map(as_bitstring, members))
    return payload, enc


# --- exact oracles ----------------------------------------------------------


def perm_count(members) -> Fraction:
    num = math.factorial(len(members))
    for m in Counter(members).values():
        num //= math.factorial(m)
    return Fraction(num)


def bit_prob(member: str, theta: Fraction) -> Fraction:
    p = Fraction(1)
    for ch in member:
        p *= theta if ch == "1" else 1 - theta
    return p


def neg_log2(p: Fraction) -> float:
    assert p > 0
    return math.log2(p.denominator) - math.log2(p.numerator)


def exact_binomial(n: int, k: int, theta: Fraction) -> Fraction:
    return math.comb(n, k) * theta**k * (1 - theta) ** (n - k)


def rising(x: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= x + i
    return out


def exact_betabin(n: int, k: int, a: Fraction, b: Fraction) -> Fraction:
    return Fraction(math.comb(n, k)) * rising(a, k) * rising(b, n - k) / rising(a + b, n)


def exact_family_pmf(fam, n, k, theta_t=None) -> Fraction:
    """Exact pmf of one coded decision under the family's true model."""
    if isinstance(fam, BinomialFamily):
        th = fam.theta if theta_t is None else theta_t
        return exact_binomial(n, k, th)
    return exact_betabin(n, k, fam.alpha, fam.beta)


def exact_tree_prob(tree: MultisetTree, params: CodecParams) -> Fraction:
    """Probability of every decision the encoder codes, recomputed exactly."""
    regime, fam = params.regime, params.family
    prob = Fraction(1)

    def go(node, depth, prefix):
        nonlocal prob
        n = node.count
        if isinstance(regime, FixedRegime):
            if depth == regime.length:
                return
            term = None
        elif isinstance(regime, SelfDelimitingRegime):
            if regime.detector.is_complete(prefix):
                return
            term = None
        else:
            term = reference_hazard(regime.length_model, depth)
        rem = n
        if term is not None:
            prob *= exact_family_pmf(fam, n, node.slack, theta_t=term)
            rem = n - node.slack
        n1 = node.child1.count if node.child1 is not None else 0
        prob *= exact_family_pmf(fam, rem, n1)
        if node.child0 is not None:
            go(node.child0, depth + 1, prefix + [0])
        if node.child1 is not None:
            go(node.child1, depth + 1, prefix + [1])

    if len(tree):
        go(tree.root, 0, [])
    return prob


# --- round-trips ------------------------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize("fam", FAMILIES, ids=repr)
    def test_fixed_corpus(self, fam):
        params = CodecParams(FixedRegime(3), fam)
        for members in (
            ["000", "000", "010", "011", "101", "110", "111"],
            ["011", "011"],
            ["111"] * 5,
            ["000"],
            [],
        ):
            round_trip(members, params)

    @pytest.mark.parametrize("fam", FAMILIES, ids=repr)
    def test_selfdelim_corpus(self, fam):
        params = CodecParams(SelfDelimitingRegime(FibTerminatorDetector()), fam)
        for values in ([1, 1, 2, 3, 4, 5], [7] * 4, [1], list(range(1, 30)), []):
            round_trip([fib_encode(v) for v in values], params)

    @pytest.mark.parametrize("fam", FAMILIES, ids=repr)
    def test_general_corpus(self, fam):
        params = CodecParams(GeneralRegime(UniformLength(0, 3)), fam)
        for members in (
            ["01", "011"],  # one member a prefix of another
            ["", "01", ""],  # empty strings are ordinary members
            ["0", "00", "000", "01", "10", "10", "101", "11", "110", "111"],
            [],
        ):
            round_trip(members, params)

    @pytest.mark.parametrize("fam", FAMILIES[:3], ids=repr)
    def test_geometric_lengths(self, fam):
        params = CodecParams(GeneralRegime(GeometricLength(Fraction(1, 4))), fam)
        round_trip(["1", "01", "0010", "0010", "11010101"], params)
        # geometric gives every positive length mass, so the empty string
        # is the one impossible member
        with pytest.raises(ModelMismatchError):
            round_trip([""], params)

    def test_always_complete_detector(self):
        class Instant:
            def is_complete(self, prefix):
                return True

            def first_complete(self, value, nbits):
                return 0

        params = CodecParams(SelfDelimitingRegime(Instant()), BinomialFamily())
        payload, enc = round_trip(["", "", ""], params)
        assert enc.symbols_coded == 0
        assert payload.nbits == 0

    @given(st.lists(st.text("01", min_size=5, max_size=5), max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_fixed_random(self, members):
        round_trip(members, CodecParams(FixedRegime(5), BinomialFamily()))
        round_trip(members, CodecParams(FixedRegime(5), BetaBinomialFamily()))

    @given(st.lists(st.text("01", max_size=4), max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_general_random(self, members):
        params = CodecParams(GeneralRegime(UniformLength(0, 4)), BetaBinomialFamily())
        round_trip(members, params)

    @given(st.lists(st.integers(1, 300), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_selfdelim_random(self, values):
        members = [fib_encode(v) for v in values]
        params = CodecParams(SelfDelimitingRegime(FibTerminatorDetector()), BinomialFamily())
        round_trip(members, params)


# --- canonicity and determinism --------------------------------------------


class TestDeterminism:
    @given(st.lists(st.text("01", max_size=4), min_size=1, max_size=15), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_payload_ignores_input_order(self, members, rng):
        params = CodecParams(GeneralRegime(UniformLength(0, 4)), BetaBinomialFamily())
        shuffled = list(members)
        rng.shuffle(shuffled)

        def payload(ms):
            enc = RangeEncoder()
            encode_members(ms, params, enc)
            return enc.finish()

        assert payload(members) == payload(shuffled)

    @pytest.mark.parametrize("theta", [HALF, Fraction(1, 3), Fraction(99, 100)])
    def test_point_length_model_equals_fixed_regime(self, theta):
        # with a binomial family every termination draw under a point
        # length model is structural, so the two regimes emit identical bits
        members = ["0110", "0110", "1010", "0001", "1111", "0000"]
        fam = BinomialFamily(theta)
        out = []
        for regime in (FixedRegime(4), GeneralRegime(PointLength(4))):
            enc = RangeEncoder()
            encode_members(members, CodecParams(regime, fam), enc)
            out.append(enc.finish())
        assert out[0] == out[1]
        assert isinstance(out[0], BitString)


    # (nbits, sha256) of in-memory payloads whose parameters are floats and
    # ints, not Fractions: the tables are keyed by their exact ratios
    @pytest.mark.parametrize(
        "general, family, nbits, digest",
        [
            (False, BinomialFamily(0.3), 613,
             "5148ffce4d8333785d5f9b74219f0db24aa31c1a2918a80a38c01017b3059096"),
            (False, BetaBinomialFamily(0.5, 2), 658,
             "db1ec6d17e59b310c616d7bba8fec0e0d7d320da042c9c8596ba66f948ea0b20"),
            (True, BinomialFamily(0.3), 478,
             "753c17cd4a55eb81fee03ee93c04e5c0c3b7e89a50f250e8b0a609864fbeb1a1"),
            (True, BetaBinomialFamily(0.5, 2), 482,
             "cf803135a8135d9825fa1dbc16cd2de66a0f6437b8e9d8527dc3647e3c855c42"),
        ],
        ids=["fixed-binomial", "fixed-betabin", "geometric-binomial", "geometric-betabin"],
    )
    def test_pinned_payloads_under_float_and_int_parameters(self, general, family, nbits, digest):
        rng = random.Random(11)
        fixed = [format(rng.getrandbits(12), "012b") for _ in range(60)]
        fixed += fixed[:7]
        varied = ["".join(rng.choice("01") for _ in range(rng.randint(1, 14))) for _ in range(50)]
        varied += varied[:9]
        if general:
            members, regime = varied, GeneralRegime(GeometricLength(0.25))
        else:
            members, regime = fixed, FixedRegime(12)
        payload, _ = round_trip(members, CodecParams(regime, family))
        assert (payload.nbits, hashlib.sha256(payload.data).hexdigest()) == (nbits, digest)


# --- ideal codelength against the exact oracles ----------------------------


class TestIdealCodelength:
    @given(st.lists(st.text("01", min_size=3, max_size=3), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_fixed_theta_half_closed_form(self, members):
        ideal = ideal_codelength(members, CodecParams(FixedRegime(3), BinomialFamily()))
        n = len(members)
        expect = 3 * n - neg_log2(1 / perm_count(members)) if n else 0.0
        assert ideal == pytest.approx(expect, abs=1e-6)

    @pytest.mark.parametrize("theta", [HALF, Fraction(1, 3), Fraction(9, 10)])
    @given(members=st.lists(st.text("01", min_size=4, max_size=4), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_fixed_member_product(self, theta, members):
        ideal = ideal_codelength(members, CodecParams(FixedRegime(4), BinomialFamily(theta)))
        p = perm_count(members)
        for w in members:
            p *= bit_prob(w, theta)
        assert ideal == pytest.approx(neg_log2(p), abs=1e-6)

    @given(st.lists(st.integers(1, 100), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_selfdelim_member_product(self, values):
        members = [fib_encode(v) for v in values]
        theta = Fraction(2, 5)
        params = CodecParams(
            SelfDelimitingRegime(FibTerminatorDetector()), BinomialFamily(theta)
        )
        p = perm_count(members)
        for w in members:
            p *= bit_prob(w, theta)
        assert ideal_codelength(members, params) == pytest.approx(neg_log2(p), abs=1e-6)

    @pytest.mark.parametrize(
        "model",
        [UniformLength(0, 4), UniformLength(2, 4), GeometricLength(Fraction(1, 3))],
        ids=repr,
    )
    @given(members=st.lists(st.text("01", min_size=2, max_size=4), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_general_member_product(self, model, members):
        # P(multiset) = perm * prod_w L(len_w) * prod bits; the hazard
        # factors the codec actually codes must telescope back to this
        theta = Fraction(1, 3)
        params = CodecParams(GeneralRegime(model), BinomialFamily(theta))
        p = perm_count(members)
        for w in members:
            p *= model.pmf(len(w)) * bit_prob(w, theta)
        assert ideal_codelength(members, params) == pytest.approx(neg_log2(p), abs=1e-6)

    @pytest.mark.parametrize("fam", FAMILIES, ids=repr)
    @pytest.mark.parametrize(
        "regime",
        [
            FixedRegime(3),
            SelfDelimitingRegime(FixedLengthDetector(3)),
            GeneralRegime(UniformLength(0, 3)),
        ],
        ids=["fixed", "selfdelim", "general"],
    )
    def test_matches_exact_decision_walk(self, regime, fam):
        members = ["000", "000", "010", "011", "101", "110", "111"]
        if isinstance(regime, GeneralRegime):
            members = members + ["", "01", "1"]
        params = CodecParams(regime, fam)
        want = neg_log2(exact_tree_prob(MultisetTree.build(members), params))
        assert ideal_codelength(members, params) == pytest.approx(want, abs=1e-7)

    def test_empty_multiset_is_free(self):
        assert ideal_codelength([], CodecParams(FixedRegime(8))) == 0.0


# --- member types: text, BitString, its subclasses, a mix ------------------


class _OwnBitString(BitString):
    """A caller's own BitString subclass, equal to no BitString."""

    __slots__ = ()


_TYPED_TEXT = ["0110", "1", "0110", "0", "001", "1", "0110", "0111010", "001", "10"]
_TYPED_PARAMS = [
    CodecParams(GeneralRegime(GeometricLength(Fraction(1, 4))), BetaBinomialFamily()),
    CodecParams(GeneralRegime(UniformLength(0, 7)), BinomialFamily(Fraction(1, 3))),
]


def _typed_members() -> dict:
    """The same multiset as each kind of input the codec takes."""
    makers = (str, BitString.from_str, _OwnBitString.from_str)
    return {
        "str": list(_TYPED_TEXT),
        "BitString": [BitString.from_str(s) for s in _TYPED_TEXT],
        "subclass": [_OwnBitString.from_str(s) for s in _TYPED_TEXT],
        "mixed": [makers[i % 3](s) for i, s in enumerate(_TYPED_TEXT)],
    }


class TestMemberTypes:
    # _sort counts BitStrings in C and coerces other members first; which
    # way a member came in must not reach the payload
    @pytest.mark.parametrize("params", _TYPED_PARAMS)
    def test_payload_is_the_same_for_every_member_type(self, params):
        coded = {}
        for name, members in _typed_members().items():
            enc = RangeEncoder()
            encode_members(members, params, enc)
            coded[name] = enc.symbols_coded, enc.finish()
        assert len(set(coded.values())) == 1, coded
        assert coded["str"][0] > 0

    @pytest.mark.parametrize("params", _TYPED_PARAMS)
    def test_ideal_codelength_is_the_same_for_every_member_type(self, params):
        want = ideal_codelength(_TYPED_TEXT, params)
        assert want > 0
        for name, members in _typed_members().items():
            assert ideal_codelength(members, params) == want, name
            assert ideal_codelength(iter(members), params) == want, name
            assert ideal_codelength(MultisetTree.build(members), params) == want, name

    @pytest.mark.parametrize("bad", [b"01", 1])
    @pytest.mark.parametrize("first", [str, BitString.from_str])
    def test_a_member_that_is_no_bit_string_codes_nothing(self, bad, first):
        enc = RangeEncoder()
        members = [first("0110"), BitString.from_str("1"), bad, "001"]
        with pytest.raises(TypeError):
            encode_members(members, _TYPED_PARAMS[0], enc)
        assert enc.symbols_coded == 0
        with pytest.raises(TypeError):
            ideal_codelength(members, _TYPED_PARAMS[0])

    # prefixes and zero-extensions of a few short strings, so that many
    # members share their bytes and differ only in their length
    @given(
        st.lists(
            st.tuples(st.text("01", max_size=6), st.integers(0, 12), st.booleans()).map(
                lambda t: (BitString.from_str if t[2] else str)(t[0] + "0" * t[1])
            ),
            max_size=40,
        )
    )
    @example(["", "0", "00", "01", "010", "0100000000", "0", BitString.from_str("00")])
    @settings(max_examples=200, deadline=None)
    def test_sort_gives_the_distinct_members_in_order(self, members):
        call = treecodec._Call(CodecParams(GeneralRegime(UniformLength(0, 20))))
        datas, values, lengths, cum = treecodec._sort(members, call)
        bits = list(map(as_bitstring, members))
        assert list(zip(datas, lengths)) == sorted({(b.data, b.nbits) for b in bits})
        assert [format(v, f"0{n}b") if n else "" for v, n in zip(values, lengths)] == [
            BitString(data, n).to_str() for data, n in zip(datas, lengths)
        ]
        counts = Counter(bits)
        assert [cum[i + 1] - cum[i] for i in range(len(datas))] == [
            counts[BitString(data, n)] for data, n in zip(datas, lengths)
        ]
        assert cum[0] == 0 and cum[-1] == len(members)


# --- coder optimality -------------------------------------------------------


class TestOptimality:
    @pytest.mark.parametrize("fam", FAMILIES, ids=repr)
    def test_payload_close_to_ideal(self, fam):
        import random

        rng = random.Random(2024)
        params = CodecParams(GeneralRegime(UniformLength(0, 6)), fam)
        for trial in range(30):
            n = rng.randrange(1, 40)
            members = [
                "".join(rng.choice("01") for _ in range(rng.randrange(7)))
                for _ in range(n)
            ]
            enc = RangeEncoder()
            encode_members(members, params, enc)
            payload = enc.finish()
            ideal = ideal_codelength(members, params)
            slack = 2 + 0.01 * enc.symbols_coded
            assert payload.nbits <= ideal + slack, (trial, payload.nbits, ideal)

    def test_single_member_fixed_costs_exactly_L(self):
        params = CodecParams(FixedRegime(5), BinomialFamily())
        for member in ("10110", "00000", "11111"):
            enc = RangeEncoder()
            encode_members([member], params, enc)
            payload = enc.finish()
            assert ideal_codelength([member], params) == 5.0  # each level is one fair bit
            assert enc.symbols_coded == 5
            assert payload.nbits <= 6


def _counted(stream, seen):
    """stream, recording each item with what the coder sent back for it.  A
    decoder chain (split, n, termination, d, count, prefix), sent back the c
    depths whose bits it appended to prefix, is recorded in the encoder's
    shape: the chain without prefix, and 1 << c | bits."""
    item = next(stream)
    try:
        while True:
            reply = yield item
            if item.__class__ is tuple and len(item) == 6:
                bits = item[5][len(item[5]) - reply :]
                seen.append((item[:5], int("1" + "".join(map(str, bits)), 2)))
            else:
                seen.append((item, reply))
            item = stream.send(reply)
    except StopIteration as end:
        return end.value


def _record_coder_items(monkeypatch) -> tuple[list, list, list]:
    """Patch both coder directions and BitString.from_bits to record into
    three lists, returned as (encoded, decoded, built): each item a coder
    direction is handed, with the reply sent back for it, and one entry per
    from_bits call."""
    encoded, decoded, built = [], [], []
    encode, decode = RangeEncoder.encode_intervals, RangeDecoder.decode_walk
    monkeypatch.setattr(
        RangeEncoder, "encode_intervals", lambda enc, s: encode(enc, _counted(iter(s), encoded))
    )
    monkeypatch.setattr(RangeDecoder, "decode_walk", lambda dec, w: decode(dec, _counted(w, decoded)))
    from_bits = BitString.from_bits
    monkeypatch.setattr(BitString, "from_bits", lambda bits: built.append(1) or from_bits(bits))
    return encoded, decoded, built


def _payload(members, params) -> bytes:
    enc = RangeEncoder()
    encode_members(members, params, enc)
    return enc.finish().data


def _sends(tree: MultisetTree, length, coded) -> int:
    """The decoder's sends for the trie of the members: at each node, a
    chain where one may start, which takes every depth below whose
    termination count is 0 and whose members take one branch; then, unless
    the fixed length is reached, a termination count where coded(d, n)
    says its table is not a point mass (coded None where no termination
    counts are coded), and a split."""
    sends, stack = 0, [(tree.root, 0)] if len(tree) else []
    while stack:
        node, d = stack.pop()
        chain = node.count == 1
        while d != length:
            if chain:
                sends += 1
                while not node.slack and (node.child0 is None) != (node.child1 is None):
                    node, d = node.child0 or node.child1, d + 1
                if d == length:
                    break
            if coded is not None:
                sends += coded(d, node.count)
                if node.slack == node.count:
                    break
            sends += 1
            if node.child0 is not None and node.child1 is not None:
                stack += [(node.child1, d + 1), (node.child0, d + 1)]
                break
            node, d, chain = node.child0 or node.child1, d + 1, True
    return sends


class TestChains:
    """The rest of a distinct member below its last branch reaches the range
    coder as one chain item."""

    def test_sha1_chains_are_one_coder_item_each(self, monkeypatch):
        from test_golden import CASES

        members, params = CASES["fixed160/sha1-1024"]
        encoded, decoded, built = _record_coder_items(monkeypatch)

        enc = RangeEncoder()
        encode_members(members, params, enc)
        dec = RangeDecoder.from_bytes(enc.finish().data)
        assert decode_members(params, len(members), dec) == sorted(map(as_bitstring, members))
        assert enc.symbols_coded == 153686  # as when every decision was its own item
        # a member alone below its node is the chain ((cum, 1, stretch, d,
        # count), bits) to the encoder and (cum, 1, stretch, d, count) to the
        # decoder, which sends back 1 << count | bits, every depth taken
        sent = [item for item, _ in encoded if item[0].__class__ is tuple]
        received = [(item, bits) for item, bits in decoded if item.__class__ is tuple and item[1] == 1]
        assert len(sent) == len(received) == len(members)
        for ((cum, n, _, d, count), bits), ((got_cum, got_n, _, got_d, got_count), got_bits) in zip(
            sent, received
        ):
            assert isinstance(bits, int) and isinstance(got_bits, int)
            assert (cum, n, d, count, 1 << count | bits) == (got_cum, got_n, got_d, got_count, got_bits)
        assert len(encoded) < enc.symbols_coded // 40 and len(decoded) < enc.symbols_coded // 40
        assert len(built) == len(members)

    @pytest.mark.parametrize("name", ["geom1/128/zipf-2000", "uniform100-300/long-duplicates"])
    def test_general_duplicates_reach_the_coder_as_chains(self, name, monkeypatch):
        # below its last branch each distinct member, whatever its copies,
        # is one chain item ((split(n), n, stretch, d, count), bits) to the
        # encoder; the decoder gets the same depths back as 1 << count |
        # bits, or, where it entered the member's node from a branch with
        # n > 1 copies and so offered no chain there, all but the first
        from test_golden import CASES

        members, params = CASES[name]
        encoded, decoded, built = _record_coder_items(monkeypatch)
        enc = RangeEncoder()
        encode_members(members, params, enc)
        dec = RangeDecoder.from_bytes(enc.finish().data)
        assert decode_members(params, len(members), dec) == sorted(map(as_bitstring, members))
        assert len(encoded) < enc.symbols_coded // 20 and len(decoded) < enc.symbols_coded // 20
        assert len(built) == len(members)
        sent = Counter(
            (item[3], item[1], 1 << item[4] | bits)
            for item, bits in (item for item, _ in encoded)
            if item.__class__ is tuple
        )
        assert sum(sent.values()) == len(set(members))
        received = Counter(
            (item[3], item[1], reply) for item, reply in decoded if item.__class__ is tuple
        )
        for (d, n, marked), copies in sent.items():
            count = marked.bit_length() - 1
            below = (d + 1, n, 1 << count - 1 | marked & (1 << count - 1) - 1)
            for _ in range(copies):
                key = (d, n, marked) if received[(d, n, marked)] or n == 1 else below
                assert received[key]
                received[key] -= 1

    @pytest.mark.parametrize(
        "name",
        [
            "geom1/128/zipf-2000",
            "geom1/16/skewed-duplicates-2000",
            "uniform100-300/long-duplicates",
            "uniform0-10/duplicates",
            "fixed160/duplicate-run-3",
            "fixed16/duplicate-chain",
        ],
    )
    def test_decoder_offers_a_chain_only_where_one_may_start(self, name, monkeypatch):
        # the decoder offers a chain at a node of one member and after each
        # split that did not branch, never on entering a node of n > 1
        # members, where a branch would stop it at once; its sends are those
        # of that rule over the trie, where a termination count whose table
        # is a point mass is not sent, as it codes nothing
        from test_golden import CASES

        members, params = CASES[name]
        _, decoded, _ = _record_coder_items(monkeypatch)
        dec = RangeDecoder.from_bytes(_payload(members, params))
        assert decode_members(params, len(members), dec) == sorted(map(as_bitstring, members))
        if isinstance(params.regime, GeneralRegime):
            model, fam = params.regime.length_model, params.family
            length = None

            def coded(d, n):
                theta_t = reference_hazard(model, d)
                return fam.termination_table(n, *theta_t.as_integer_ratio())[-1] > 1

        else:
            length, coded = params.regime.length, None
        assert len(decoded) == _sends(MultisetTree.build(members), length, coded)
        for (before, n1), (item, _) in zip(decoded, decoded[1:]):
            if item.__class__ is tuple and item[1] > 1:
                assert before is item[0] and n1 in (0, item[1])

    @pytest.mark.parametrize(
        "name", ["geom1/128/zipf-2000", "uniform100-300/long-duplicates", "uniform0-10/duplicates"]
    )
    def test_stretch_ends_are_asked_only_where_chains_reach(self, name, monkeypatch):
        # a single termination decision takes its table alone; the model is
        # asked where a stretch ends only at the stretch starts a chain
        # reaches, from its first depth up to the depth that stopped it
        from test_golden import CASES

        members, params = CASES[name]
        model = params.regime.length_model
        asked = []
        ask = type(model).same_hazard_until
        monkeypatch.setattr(
            type(model), "same_hazard_until", lambda self, d: asked.append(d) or ask(self, d)
        )
        encoded, decoded, _ = _record_coder_items(monkeypatch)
        enc = RangeEncoder()
        encode_members(members, params, enc)
        from_encoder, asked[:] = asked[:], []
        decode_members(params, len(members), RangeDecoder.from_bytes(enc.finish().data))
        sent = [(*chain, 1 << chain[4] | bits) for (chain, bits), _ in encoded if chain.__class__ is tuple]
        received = [(*item, reply) for item, reply in decoded if item.__class__ is tuple]
        for chains, got in ((sent, from_encoder), (received, asked)):
            want = []
            for _, _, _, d, count, marked in chains:
                e, taken = d, marked.bit_length() - 1
                while e is not None and e < d + count and e <= d + taken:
                    want.append(e)
                    e = ask(model, e)
            assert got == want
            assert want

    @pytest.mark.parametrize(
        "name",
        [
            "fixed160/duplicate-run-3",
            "fixed16/duplicate-chain",
            "fixed8/duplicates",
            "fixed8/binom-1/3",
            "fib/duplicates",
            "fib/betabin-2,5",
            "fib/random-1500",
        ],
    )
    def test_a_chain_is_the_rest_of_one_distinct_member(self, name, monkeypatch):
        # each distinct member, of m copies, sends the bits below its own
        # node as one chain under split(m), whose termination codes nothing
        from test_golden import CASES

        members, params = CASES[name]
        items = []
        encode = RangeEncoder.encode_intervals
        monkeypatch.setattr(
            RangeEncoder, "encode_intervals", lambda enc, s: encode(enc, items.extend(s) or items)
        )
        encode_members(members, params, RangeEncoder())
        chains = [(*chain, bits) for chain, bits in items if chain.__class__ is tuple]
        for _, n, stretch, d, _, _ in chains:
            term, end = stretch(d, n)
            assert term[-1] == term[1] == 1 and end is None  # a point mass, every depth

        counts = Counter(as_bitstring(m).to_str() for m in members)
        distinct = sorted(counts)  # prefix-free, so its neighbours fix each member's node
        want = []
        for i, w in enumerate(distinct):
            shared = [len(os.path.commonprefix([w, v])) for v in distinct[max(i - 1, 0) : i + 2]]
            d = max(s + 1 for s in shared if s < len(w)) if len(distinct) > 1 else 0
            if len(w) > d:
                m = counts[w]
                want.append((params.family.split_table(m), m, d, len(w) - d, int(w[d:], 2)))
        assert [(split, n, d, count, bits) for split, n, _, d, count, bits in chains] == want
        assert any(m > 1 for _, m, *_ in want)  # several copies of a member are one chain

    @pytest.mark.parametrize(
        "name", ["fib/binom-1/3", "fib/betabin-2,5", "fib/random-1500", "fib/N=1/long"]
    )
    def test_a_self_delimiting_tail_is_one_decoder_item(self, name, monkeypatch):
        # a member alone below its node, not complete there, reaches the
        # range decoder as (split(1), prefix, is_complete, cap - d + 1),
        # which sends back the depths to the member's end
        from test_golden import CASES

        members, params = CASES[name]
        _, decoded, _ = _record_coder_items(monkeypatch)
        dec = RangeDecoder.from_bytes(_payload(members, params))
        assert decode_members(params, len(members), dec) == sorted(map(as_bitstring, members))
        cap = treecodec.DECODE_DEPTH_CAP
        tails = [
            (item, taken) for item, taken in decoded if item.__class__ is tuple and len(item) == 4
        ]
        for (split, prefix, complete, _), _ in tails:
            assert list(split) == list(params.family.split_table(1))
            assert prefix.__class__ is bytearray
            assert complete == params.regime.detector.is_complete

        counts = Counter(as_bitstring(m).to_str() for m in members)
        distinct = sorted(counts)
        want = []
        for i, w in enumerate(distinct):
            shared = [len(os.path.commonprefix([w, v])) for v in distinct[max(i - 1, 0) : i + 2]]
            d = max(s + 1 for s in shared if s < len(w)) if len(distinct) > 1 else 0
            if counts[w] == 1 and len(w) > d:
                want.append((d, len(w) - d))
        assert [(cap + 1 - count, taken) for (*_, count), taken in tails] == want
        assert want

    def test_a_long_run_decodes_in_linear_time(self):
        # under a table other than [0, 1, 2] the decoder takes a run one
        # decision at a time; shifting the whole run's int once per decision
        # made this member decode about 5x slower than it encoded
        rng = random.Random(3)
        member = BitString.from_bits(bytes(rng.randrange(2) for _ in range(65535)))
        params = CodecParams(FixedRegime(65535), BinomialFamily(Fraction(1, 3)))
        payload, _ = round_trip([member], params)

        def encode():
            encode_members([member], params, RangeEncoder())

        def decode():
            decode_members(params, 1, RangeDecoder.from_bytes(payload.data))

        # best of 7 in CPU time, which other processes disturb less, the
        # samples interleaved so a slow stretch of the host slows both sides
        times = {encode: [], decode: []}
        for _ in range(7):
            for code, samples in times.items():
                start = time.process_time()
                code()
                samples.append(time.process_time() - start)
        assert min(times[decode]) <= 2.5 * min(times[encode])


# --- rejection and robustness ----------------------------------------------


def _members_near(valid):
    """Lists of valid members alone, or mixed with their prefixes (the
    empty member among them), their extensions and arbitrary bit strings."""
    near = st.one_of(
        valid,
        valid.flatmap(lambda w: st.integers(0, len(w)).map(lambda i: w[:i])),
        valid.flatmap(lambda w: st.text("01", min_size=1, max_size=6).map(lambda t: w + t)),
        st.text("01", max_size=12),
    )
    return st.lists(valid, max_size=12) | st.lists(near, max_size=12)


def prefix_free(complete):
    """The check that complete holds at every member's end and at no
    shorter prefix, on sorted distinct (data, nbits) pairs as _sort lists
    them: the reference that a detector's first_complete is checked
    against.  The detector is a pure predicate, so it is asked once per
    trie node, in the decoder's preorder: each member starts at the prefix
    it shares with the member before, which is that member, complete, or a
    shorter prefix of it that was not."""

    def check(distinct: list) -> None:
        prefix = bytearray()  # 0/1 values, as the decoder's detector sees them
        done = bool(distinct) and complete(prefix)
        before = before_nbits = 0
        for data, nbits in distinct:
            value = int.from_bytes(data, "big") >> (8 * len(data) - nbits)
            m = min(nbits, before_nbits)
            del prefix[m - ((value >> (nbits - m)) ^ (before >> (before_nbits - m))).bit_length() :]
            done = done and len(prefix) == before_nbits
            for bit in marked_bits(value | 1 << nbits)[len(prefix) :]:
                if done:
                    raise ModelMismatchError(f"member extends a complete {len(prefix)}-bit prefix")
                prefix.append(bit)
                done = complete(prefix)
            if not done:
                raise ModelMismatchError(f"member of {nbits} bits does not end complete")
            before, before_nbits = value, nbits

    return check


# (detector, members) for both shipped detectors
DETECTED_MEMBERS = st.tuples(
    st.just(FibTerminatorDetector()), _members_near(st.integers(1, 300).map(fib_encode))
) | st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.just(FixedLengthDetector(n)), _members_near(st.text("01", min_size=n, max_size=n))
    )
)


class TestValidation:
    def test_unknown_regime_rejected(self):
        params = CodecParams("fixed")
        enc = RangeEncoder()
        with pytest.raises(TypeError):
            encode_members(["01"], params, enc)
        assert enc.symbols_coded == 0
        with pytest.raises(TypeError):
            decode_members(params, 1, RangeDecoder.from_bytes(b"\x12"))

    def test_fixed_rejects_wrong_lengths(self):
        params = CodecParams(FixedRegime(3))
        for members in (["01"], ["0101"], ["010", ""]):
            enc = RangeEncoder()
            with pytest.raises(ModelMismatchError):
                encode_members(members, params, enc)
            assert enc.symbols_coded == 0  # rejected before anything was coded

    def test_selfdelim_rejects_non_codewords(self):
        params = CodecParams(SelfDelimitingRegime(FibTerminatorDetector()))
        for members in (["10"], ["1101"], ["11", "1"], [""], ["11", "11011"], ["011", "011011"]):
            enc = RangeEncoder()
            with pytest.raises(ModelMismatchError):
                encode_members(members, params, enc)
            assert enc.symbols_coded == 0

    # a member's tail is decoded inside the range decoder, by the shift
    # under the equiprobable split at n = 1 and by the division otherwise
    @pytest.mark.parametrize(
        "family",
        [BetaBinomialFamily(), BinomialFamily(Fraction(1, 3))],
        ids=["equiprobable", "lopsided"],
    )
    def test_detector_sees_the_same_prefixes_on_both_sides(self, family):
        # the decoder and the reference walk over the trie ask about the
        # same prefixes, in the same order and of the same type
        class Recording:
            def __init__(self):
                self.inner, self.calls = FibTerminatorDetector(), []

            def is_complete(self, prefix):
                self.calls.append((type(prefix), bytes(prefix)))
                return self.inner.is_complete(prefix)

            def first_complete(self, value, nbits):
                return self.inner.first_complete(value, nbits)

        rng = random.Random(11)
        members = [fib_encode(rng.randint(1, 300)) for _ in range(200)]
        detector = Recording()
        params = CodecParams(SelfDelimitingRegime(detector), family)
        enc = RangeEncoder()
        encode_members(members, params, enc)
        assert not detector.calls  # the encoder's check asks first_complete
        dec = RangeDecoder.from_bytes(enc.finish().data)
        assert decode_members(params, len(members), dec) == sorted(map(as_bitstring, members))
        decoded, detector.calls = detector.calls, []
        distinct = sorted({(b.data, b.nbits) for b in map(as_bitstring, members)})
        prefix_free(detector.is_complete)(distinct)
        assert decoded == detector.calls
        assert {kind for kind, _ in decoded} == {bytearray}
        assert len(decoded) == len(set(decoded))  # once per trie node

    def test_shipped_detectors_check_members_without_is_complete(self, monkeypatch):
        # the check before encoding asks first_complete once per member;
        # the decoder still asks is_complete at each trie node
        calls = []
        is_complete = FibTerminatorDetector.is_complete
        monkeypatch.setattr(
            FibTerminatorDetector,
            "is_complete",
            lambda self, prefix: calls.append(1) or is_complete(self, prefix),
        )
        rng = random.Random(12)
        members = [fib_encode(rng.randint(1, 300)) for _ in range(200)]
        params = CodecParams(SelfDelimitingRegime(FibTerminatorDetector()), BetaBinomialFamily())
        enc = RangeEncoder()
        encode_members(members, params, enc)
        assert not calls
        dec = RangeDecoder.from_bytes(enc.finish().data)
        assert decode_members(params, len(members), dec) == sorted(map(as_bitstring, members))
        assert calls

    @given(DETECTED_MEMBERS)
    @example((FibTerminatorDetector(), [""]))
    @example((FibTerminatorDetector(), ["11", "110"]))
    @example((FibTerminatorDetector(), ["011", "011", "11"]))
    @example((FixedLengthDetector(2), ["01", "011"]))
    @example((FixedLengthDetector(2), ["01", "01", ""]))
    @settings(max_examples=400, deadline=None)
    def test_closed_form_check_agrees_with_the_prefix_walk(self, detected):
        # on sorted members, distinct as _sort gives them and with their
        # duplicates, the check through first_complete accepts exactly what
        # the walk that asks is_complete per trie node accepts
        detector, members = detected
        pairs = sorted((b.data, b.nbits) for b in map(as_bitstring, members))

        def accepts(check, listed):
            try:
                check(listed)
            except ModelMismatchError:
                return False
            return True

        def closed(listed):
            # the check reads each member's int and length, as _sort gives them
            lengths = [nbits for _, nbits in listed]
            values = [int.from_bytes(data) >> (-nbits & 7) for data, nbits in listed]
            treecodec._ends_complete(detector.first_complete)(values, lengths)

        walk = prefix_free(detector.is_complete)
        for listed in (sorted(set(pairs)), pairs):
            assert accepts(closed, listed) == accepts(walk, listed)

    def test_general_rejects_zero_probability_lengths(self):
        params = CodecParams(GeneralRegime(UniformLength(2, 3)))
        for members in (["1"], ["0000"], ["01", ""]):
            enc = RangeEncoder()
            with pytest.raises(ModelMismatchError):
                encode_members(members, params, enc)
            assert enc.symbols_coded == 0

    def test_degenerate_theta_rejects_forbidden_bit(self):
        # theta = 0 says "no member ever takes the 1 branch"
        params = CodecParams(FixedRegime(2), BinomialFamily(Fraction(0)))
        with pytest.raises(ModelMismatchError):
            enc = RangeEncoder()
            encode_members(["01"], params, enc)
        # and the all-zero multiset costs nothing at all
        enc = RangeEncoder()
        encode_members(["00", "00"], params, enc)
        assert enc.finish().nbits == 0
        # theta = 0 or 1 gives every split a dead outcome, so the rest of a
        # member goes one decision at a time: a forbidden bit deep inside a
        # long member is still refused, in the fixed and the general regime,
        # under one copy or several; the ideal codelength is infinite there,
        # and elsewhere that of the termination counts alone
        for theta, zero, one in ((Fraction(0), "0", "1"), (Fraction(1), "1", "0")):
            for regime, cost in (
                (FixedRegime(200), 0.0),
                (GeneralRegime(GeometricLength(Fraction(1, 4))), 169.18492471297955),
            ):
                params = CodecParams(regime, BinomialFamily(theta))
                for copies in (1, 3):
                    members = [zero * 150 + one + zero * 49] * copies
                    dead = copies if theta == 0 else 0
                    with pytest.raises(ModelMismatchError, match=f"^outcome {dead} has zero"):
                        encode_members(members, params, RangeEncoder())
                    assert ideal_codelength(members, params) == math.inf
                members = [zero * 200] * 2
                enc = RangeEncoder()
                encode_members(members, params, enc)
                dec = RangeDecoder.from_bytes(enc.finish().data)
                assert decode_members(params, 2, dec) == [BitString.from_str(zero * 200)] * 2
                assert ideal_codelength(members, params) == pytest.approx(cost, abs=1e-9)

    def test_clean_input_passes_validation(self):
        enc = RangeEncoder()
        encode_members(["010", "100"], CodecParams(FixedRegime(3)), enc)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FixedRegime(0)
        with pytest.raises(ValueError):
            BinomialFamily(Fraction(3, 2))
        with pytest.raises(ValueError):
            BetaBinomialFamily(Fraction(0), Fraction(1))

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_beta_binomial_refuses_non_finite_parameters(self, bad):
        # an infinite or NaN prior has no pmf: refused here, not as an
        # OverflowError from the container or a nan ideal codelength
        with pytest.raises(ValueError, match="finite"):
            BetaBinomialFamily(bad, HALF)
        with pytest.raises(ValueError, match="finite"):
            BetaBinomialFamily(HALF, bad)

    @pytest.mark.parametrize("big", [2**32, 1e16, 1e300, 1e308])
    def test_beta_binomial_refuses_parameters_the_container_cannot_hold(self, big):
        # the header holds u32/u32 ratios; at 1e16 the float pmf sweep sums
        # to about 21,384, and at 1e300 the ideal codelength went negative
        with pytest.raises(ValueError, match=r"below 2\*\*32"):
            BetaBinomialFamily(big, HALF)
        with pytest.raises(ValueError, match=r"below 2\*\*32"):
            BetaBinomialFamily(HALF, big)

    @pytest.mark.parametrize("slot", ["alpha", "beta"])
    def test_beta_binomial_largest_parameter_round_trips(self, slot):
        family = BetaBinomialFamily(**{slot: 2**32 - 1})
        params = CodecParams(FixedRegime(4), family)
        members = ["0101", "0011", "0101", "1110"]
        data = msetzip.compress(members, params)
        assert [m.to_str() for m in msetzip.decompress(data)] == sorted(members)
        assert msetzip.container.parse_header(data)[0] == params


class TestDepthCap:
    # (regime, member of n bits) for the two regimes capped at DECODE_DEPTH_CAP
    UNBOUNDED = [
        (SelfDelimitingRegime(FibTerminatorDetector()), lambda n: "0" * (n - 2) + "11"),
        (GeneralRegime(GeometricLength(HALF)), lambda n: "0" * n),
    ]

    @pytest.mark.parametrize("fam", [BinomialFamily(), BetaBinomialFamily()], ids=repr)
    @pytest.mark.parametrize("regime, member", UNBOUNDED, ids=["selfdelim", "general"])
    def test_compress_refuses_what_decompress_would(self, monkeypatch, regime, member, fam):
        monkeypatch.setattr(treecodec, "DECODE_DEPTH_CAP", 40)
        params = CodecParams(regime, fam)
        enc = RangeEncoder()
        with pytest.raises(ModelMismatchError):
            encode_members(["011", member(41)], params, enc)
        assert enc.symbols_coded == 0  # rejected before anything was coded
        round_trip(["011", member(40), member(40)], params)


def _record_termination_lookups(monkeypatch, record) -> None:
    """Have every codec call report each termination lookup, a single
    decision's or a chain stretch's, as record(d, n) before it is made."""

    class Recorded(treecodec._Call):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            termination, stretch = self.termination, self.stretch
            self.termination = lambda d, n: record(d, n) or termination(d, n)
            self.stretch = lambda d, n: record(d, n) or stretch(d, n)

    monkeypatch.setattr(treecodec, "_Call", Recorded)


class TestTableMemory:
    # A chain trie (members 0^k, k = 1..K) meets K distinct split counts and
    # K distinct termination counts, ~K^2 table entries in all; one call
    # must not keep them all alive.
    K = 120

    @pytest.mark.parametrize(
        "model", [GeometricLength(Fraction(1, 4)), UniformLength(1, K)], ids=repr
    )
    def test_tables_retained_per_call_stay_bounded(self, monkeypatch, model):
        monkeypatch.setattr(treecodec, "TABLES_PER_CALL", 8)
        live = peak = 0

        def release():
            nonlocal live
            live -= 1

        def tracked(table):
            nonlocal live, peak
            table = table[:]
            weakref.finalize(table, release)
            live += 1
            peak = max(peak, live)
            return table

        class Tracked(BinomialFamily):
            def split_table(self, n):
                return tracked(super().split_table(n))

            def termination_table(self, n, num, den):
                return tracked(super().termination_table(n, num, den))

            def split_log2pmf(self, n):
                return tracked(super().split_log2pmf(n))

            def termination_log2pmf(self, n, num, den):
                return tracked(super().termination_log2pmf(n, num, den))

        params = CodecParams(GeneralRegime(model), Tracked())
        members = ["0" * k for k in range(1, self.K + 1)]
        round_trip(members, params)
        ideal_codelength(members, params)
        # 8 split + 8 termination tables cached, plus the one in hand
        assert 0 < peak <= 2 * 8 + 2

    def test_each_depth_computes_its_hazard_once(self, monkeypatch):
        # A uniform length model's hazard differs at every depth, so every
        # depth has its own termination tables; each depth's hazard is
        # computed once per call, whatever counts its tables are for.
        calls = Counter()
        exact = UniformLength.hazard
        monkeypatch.setattr(UniformLength, "hazard", lambda m, d: calls.update((d,)) or exact(m, d))
        members = ["0110", "0110", "0111", "01", "1" * 300]
        for family in (BinomialFamily(), BetaBinomialFamily()):
            params = CodecParams(GeneralRegime(UniformLength(1, 400)), family)
            enc = RangeEncoder()
            encode_members(members, params, enc)
            assert calls == Counter(range(301))
            calls.clear()
            dec = RangeDecoder.from_bytes(enc.finish().data)
            assert decode_members(params, len(members), dec) == sorted(map(as_bitstring, members))
            assert calls == Counter(range(301))
            calls.clear()
            ideal_codelength(members, params)
            assert calls == Counter(range(301))
            calls.clear()

    @pytest.mark.parametrize("family", [BinomialFamily(), BetaBinomialFamily()], ids=repr)
    @pytest.mark.parametrize(
        "model", [GeometricLength(Fraction(1, 4)), UniformLength(1, 24), PointLength(12)], ids=repr
    )
    def test_the_bound_changes_sharing_never_bytes(self, monkeypatch, model, family):
        # a table depends on its parameters' values alone, so a cache that
        # evicts it rebuilds the same table, and the bytes never change
        rng = random.Random(6)
        lengths = [12] if isinstance(model, PointLength) else range(1, 25)
        distinct = [
            BitString.from_bits([rng.randrange(2) for _ in range(rng.choice(lengths))])
            for _ in range(60)
        ]
        members = rng.choices(distinct, k=200)
        params = CodecParams(GeneralRegime(model), family)

        def code():
            enc = RangeEncoder()
            encode_members(members, params, enc)
            data = enc.finish().data
            dec = RangeDecoder.from_bytes(data)
            assert decode_members(params, len(members), dec) == sorted(members)
            return data, enc.symbols_coded, ideal_codelength(members, params)

        default = code()
        for bound in (1, 2):
            monkeypatch.setattr(treecodec, "TABLES_PER_CALL", bound)
            assert code() == default

    def test_equal_hazards_share_tables_at_depths_apart(self, monkeypatch):
        # equal hazards two depths apart, never adjacent, share a table:
        # each (hazard, n) is built at most once per call
        class Periodic:
            def hazard(self, d):
                return Fraction(0) if d == 0 else Fraction(1, 2 if d % 2 else 3)

            def same_hazard_until(self, d):
                return d + 1

            def max_length(self):
                return None

        built = Counter()

        class Counted(BinomialFamily):
            def termination_table(self, n, num, den):
                built[num, den, n] += 1
                return super().termination_table(n, num, den)

            def termination_log2pmf(self, n, num, den):
                built[num, den, n] += 1
                return super().termination_log2pmf(n, num, den)

        looked_up = set()
        _record_termination_lookups(monkeypatch, lambda d, n: looked_up.add((d, n)))
        rng = random.Random(7)
        distinct = [
            BitString.from_bits([rng.randrange(2) for _ in range(rng.randint(1, 12))])
            for _ in range(120)
        ]
        members = rng.choices(distinct, k=340)
        params = CodecParams(GeneralRegime(Periodic()), Counted())
        enc = RangeEncoder()
        decoded = []
        calls = (
            lambda: encode_members(members, params, enc),
            lambda: decoded.extend(
                decode_members(params, len(members), RangeDecoder.from_bytes(enc.finish().data))
            ),
            lambda: ideal_codelength(members, params),
        )
        for call in calls:
            built.clear()
            looked_up.clear()
            call()
            assert max(built.values()) == 1
            assert len(built) < len(looked_up)
        assert decoded == sorted(members)


class TestMemberMemory:
    def test_one_long_member_costs_only_its_own_bits(self):
        # Each distinct member is held at its own length: one 16,000-bit
        # member beside 4,000 short ones must not widen them all to its
        # width, which would hold 4,000 x 2 kB = 8 MB before any coding.
        rng = random.Random(0)
        short = [BitString.from_bits([rng.randrange(2) for _ in range(rng.randint(1, 24))])
                 for _ in range(4000)]
        members = short + [BitString(bytes(2000), 16000)]
        params = CodecParams(GeneralRegime(GeometricLength(HALF)), BinomialFamily())
        enc = RangeEncoder()
        tracemalloc.start()
        try:
            treecodec.encode_members(members, params, enc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        dec = RangeDecoder.from_bytes(enc.finish().data)
        assert treecodec.decode_members(params, len(members), dec) == sorted(members)

    def test_one_long_member_keeps_no_entry_per_depth(self):
        # A constant hazard needs one termination table per count however
        # deep the walk goes: the per-call depth memo must not hold an
        # entry for each of a 60,000-bit member's depths.
        rng = random.Random(1)
        short = [BitString.from_bits([rng.randrange(2) for _ in range(rng.randint(1, 24))])
                 for _ in range(500)]
        members = short + [BitString(bytes(7500), 60000)]
        params = CodecParams(GeneralRegime(GeometricLength(HALF)), BinomialFamily())
        enc = RangeEncoder()
        tracemalloc.start()
        try:
            treecodec.encode_members(members, params, enc)
            encode_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            dec = RangeDecoder.from_bytes(enc.finish().data)
            out = treecodec.decode_members(params, len(members), dec)
            decode_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == sorted(members)
        assert encode_peak < 1 << 20
        assert decode_peak < 2 << 20

    def test_one_long_member_looks_up_o1_termination_tables(self, monkeypatch):
        # A geometric hazard is the same at every depth past 0, so a chain
        # takes one termination table for all of a member's depths; looked
        # up once per depth, this member cost 60,000 lookups each way.
        lookups = []
        _record_termination_lookups(monkeypatch, lambda d, n: lookups.append(d))
        member = BitString.from_bits(bytes(random.Random(4).randrange(2) for _ in range(60000)))
        params = CodecParams(GeneralRegime(GeometricLength(HALF)), BinomialFamily())
        enc = RangeEncoder()
        encode_members([member] * 3, params, enc)
        # the chain's two stretches, depth 0 and every depth from 1, and
        # the final termination count, a decision of its own
        assert lookups == [0, 1, 60000]
        lookups.clear()
        dec = RangeDecoder.from_bytes(enc.finish().data)
        assert decode_members(params, 3, dec) == [member] * 3
        assert lookups == [0, 1, 60000]

    def test_one_long_member_keeps_no_entry_per_hazard(self, monkeypatch):
        # A uniform length model's hazard differs at every depth, so no two
        # depths share a table, and the per-call hazard map must not keep a
        # Fraction for each depth of a long member.  A small bound keeps the
        # cached tables' share of the peak small; unbounded, the map alone
        # raises the peak from 0.53 to 1.44 MiB (9.5 MiB at 60,000 bits).
        monkeypatch.setattr(treecodec, "TABLES_PER_CALL", 16)
        rng = random.Random(2)
        short = [BitString.from_bits([rng.randrange(2) for _ in range(20)]) for _ in range(50)]
        members = short + [BitString(bytes(750), 6000)]
        params = CodecParams(GeneralRegime(UniformLength(1, 65535)), BinomialFamily())
        enc = RangeEncoder()
        tracemalloc.start()
        try:
            treecodec.encode_members(members, params, enc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        dec = RangeDecoder.from_bytes(enc.finish().data)
        assert treecodec.decode_members(params, len(members), dec) == sorted(members)


class TestCorruptStreams:
    # n = 1 is a single member decoded to its end in one chain: the cap
    # must stop it there too
    @pytest.mark.parametrize("n_members", [1, 3])
    def test_selfdelim_depth_cap(self, monkeypatch, n_members):
        class NeverEnds:
            def is_complete(self, prefix):
                return False

            def first_complete(self, value, nbits):
                return None

        monkeypatch.setattr(treecodec, "DECODE_DEPTH_CAP", 40)
        params = CodecParams(SelfDelimitingRegime(NeverEnds()), BinomialFamily())
        dec = RangeDecoder.from_bytes(b"\x00" * 64)
        with pytest.raises(CorruptStreamError):
            decode_members(params, n_members, dec)

    @pytest.mark.parametrize("n_members", [1, 3])
    def test_general_depth_cap_unbounded_model(self, monkeypatch, n_members):
        monkeypatch.setattr(treecodec, "DECODE_DEPTH_CAP", 40)
        params = CodecParams(GeneralRegime(GeometricLength(HALF)), BinomialFamily())
        dec = RangeDecoder.from_bytes(b"\x00" * 64)
        with pytest.raises(CorruptStreamError):
            decode_members(params, n_members, dec)

    def test_general_bounded_model_never_overruns(self):
        # Beta-binomial termination tables have full support, so corrupt
        # bytes can postpone termination -- but only until the model's own
        # maximum length backstop fires.
        import random

        rng = random.Random(5)
        params = CodecParams(GeneralRegime(UniformLength(1, 3)), BetaBinomialFamily())
        ok = bad = 0
        for _ in range(200):
            data = bytes(rng.randrange(256) for _ in range(24))
            dec = RangeDecoder.from_bytes(data)
            try:
                members = decode_members(params, 6, dec)
            except CorruptStreamError:
                bad += 1
                continue
            ok += 1
            assert all(1 <= len(m.to_str()) <= 3 for m in members)
        assert ok + bad == 200

    def test_general_lengths_are_checked_by_hazard_not_pmf(self, monkeypatch):
        # a geometric pmf is an exact power (1 - p)^(k - 1) p, one per
        # length; the hazard decides the same support without it
        def refuse(self, k):
            raise AssertionError(f"pmf({k}) was called")

        monkeypatch.setattr(GeometricLength, "pmf", refuse)
        params = CodecParams(GeneralRegime(GeometricLength(Fraction(1, 4))), BetaBinomialFamily())
        members = ["1", "01", "0010", "0010", "1" * 300]
        assert msetzip.decompress(msetzip.compress(members, params)) == sorted(
            map(as_bitstring, members)
        )
        with pytest.raises(ModelMismatchError):
            msetzip.compress([""], params)
        # a Beta-binomial termination table gives depth 0 mass, where a
        # geometric length has none: the top of the interval ends a member
        # there, and only a corrupt stream holds it
        with pytest.raises(CorruptStreamError, match="impossible length 0"):
            decode_members(params, 1, RangeDecoder.from_bytes(b"\xff" * 8))
