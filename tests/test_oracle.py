"""The paper's algorithm, taken literally, as a byte-exact oracle for the codec.

The oracle builds the count-annotated trie with MultisetTree and walks it
in preorder, child 0 before child 1.  At each node it codes one count with
one encode_interval call: in the general regime the termination count
first, under termination_table(n, num, den) for theta_T(d) = num/den,
then, unless the node is complete, how many of the other members go on
with a 1, under split_table(n).  theta_T(d) is test_models.reference_hazard, the hazard's
definition from the model's pmf and cdf_below, so the oracle shares no
code with the models' closed-form hazards that the codec reads.  Its
decoder mirrors that with one decode_target call per decision.  The
codec's sorted-member walk, its chains and byte steps must give the same
payload, and decode the same members, on random multisets; and decode the
same members from random payload bytes.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import msetzip.treecodec as treecodec
from msetzip.bits import BitReader, BitString
from msetzip.container import compress, decompress, parse_header
from msetzip.errors import CorruptStreamError
from msetzip.fibcode import fib_encode, read_fib
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
)
from test_models import reference_hazard

FAMILIES = [
    BinomialFamily(Fraction(1, 3)),
    BinomialFamily(Fraction(1, 2)),
    BetaBinomialFamily(Fraction(2), Fraction(5)),
]
# the equiprobable split at n = 1, two lopsided ones, and one whose
# outcome 0 has no mass
SELF_DELIMITING_FAMILIES = [
    BetaBinomialFamily(Fraction(1, 2), Fraction(1, 2)),
    BetaBinomialFamily(Fraction(2), Fraction(5)),
    BinomialFamily(Fraction(1, 3)),
    BinomialFamily(Fraction(1)),
]


# the equiprobable split at n = 1 under two families, lopsided ones, and
# two whose outcome 0 or outcome n has no mass
FIXED_FAMILIES = [
    BinomialFamily(Fraction(1, 2)),
    BetaBinomialFamily(Fraction(1, 2), Fraction(1, 2)),
    BetaBinomialFamily(Fraction(2), Fraction(5)),
    BinomialFamily(Fraction(1, 3)),
    BinomialFamily(Fraction(1)),
    BinomialFamily(Fraction(0)),
]


def _termination_table(params: CodecParams, n: int, d: int):
    theta_t = reference_hazard(params.regime.length_model, d)
    return params.family.termination_table(n, *theta_t.as_integer_ratio())


def _complete(regime, prefix: list) -> bool:
    if isinstance(regime, FixedRegime):
        return len(prefix) == regime.length
    if isinstance(regime, SelfDelimitingRegime):
        return regime.detector.is_complete(bytearray(prefix))
    return False  # the general regime ends members by termination counts


def oracle_encode(members, params: CodecParams) -> RangeEncoder:
    """An encoder that has coded every count of members' trie, one call
    per decision."""
    enc = RangeEncoder()
    regime, family = params.regime, params.family
    tree = MultisetTree.build(members)
    stack = [(tree.root, [])] if len(tree) else []
    while stack:
        node, prefix = stack.pop()
        n = node.count
        if isinstance(regime, GeneralRegime):
            enc.encode_interval(_termination_table(params, n, len(prefix)), node.slack)
            n -= node.slack
            if not n:
                continue
        elif _complete(regime, prefix):
            continue
        enc.encode_interval(family.split_table(n), node.child1.count if node.child1 else 0)
        for bit, child in ((1, node.child1), (0, node.child0)):
            if child is not None:
                stack.append((child, prefix + [bit]))
    return enc


def oracle_decode(params: CodecParams, n_members: int, dec: RangeDecoder, cap: int) -> list:
    """The members of oracle_encode's payload, in lexicographic order.  A
    wrong payload may describe members without end, so the walk stops with
    an AssertionError below depth cap."""
    regime, family = params.regime, params.family
    out: list = []
    stack = [(n_members, [])] if n_members else []
    while stack:
        n, prefix = stack.pop()
        assert len(prefix) <= cap, f"a member longer than {cap} bits"
        if isinstance(regime, GeneralRegime):
            n_t = dec.decode_target(_termination_table(params, n, len(prefix)))
            out += [BitString.from_bits(prefix)] * n_t
            n -= n_t
            if not n:
                continue
        elif _complete(regime, prefix):
            out += [BitString.from_bits(prefix)] * n
            continue
        n1 = dec.decode_target(family.split_table(n))
        if n1:
            stack.append((n1, prefix + [1]))
        if n - n1:
            stack.append((n - n1, prefix + [0]))
    return out


def _random_bits(length: int):
    """Bit strings of length bits from a seeded generator.  Hypothesis's own
    draws lean to runs of zeros or ones, whose payload bytes are mostly
    0x00 or 0xFF, where a byte step that loses a byte's bits can go unseen."""
    return st.integers(0, 2**32).map(
        lambda seed: "".join(random.Random(seed).choices("01", k=length))
    )


# a general regime's length model, and the lengths of the members it can
# code: a hazard that differs at every depth from 0, one that is the same
# at every depth from 1 (or has only depths 0 and 1), and one that is 0 at
# every depth below a single length
LENGTH_MODELS = [
    st.just((UniformLength(0, 40), st.integers(0, 40))),
    *(
        st.just((GeometricLength(p), st.integers(1, 40 if p < 1 else 1)))
        for p in (Fraction(1, 2), Fraction(1, 4), Fraction(1))
    ),
    st.integers(0, 40).map(lambda length: (PointLength(length), st.just(length))),
]


# prefixes and zero-extensions of one another: members with equal bytes,
# and nodes where a member ends and others go on
NESTED = ["", "0", "00", "01", "010", "0100000000"], GeneralRegime(UniformLength(0, 40))


@st.composite
def multisets(draw):
    """(members, regime): a few distinct members, each with up to 40 copies
    or just one, under a fixed, a self-delimiting or a general regime.  The
    "nested" general-regime members are prefixes and zero-extensions of one
    string: members with equal bytes and different lengths, which only
    their length orders, and nodes where a member ends and others go on."""
    kind = draw(st.sampled_from(["fixed", "fib", "general", "nested"]))
    if kind == "fixed":
        length = draw(st.integers(1, 100))
        regime = FixedRegime(length)
        member = st.one_of(
            st.integers(0, 2**length - 1).map(lambda v: format(v, f"0{length}b")),
            _random_bits(length),
        )
    elif kind == "fib":
        regime = SelfDelimitingRegime(FibTerminatorDetector())
        member = st.integers(1, 10**12).map(fib_encode)
    elif kind == "general":
        model, lengths = draw(st.one_of(LENGTH_MODELS))
        regime = GeneralRegime(model)
        member = lengths.flatmap(
            lambda n: st.one_of(st.text("01", min_size=n, max_size=n), _random_bits(n))
        )
    else:
        regime = NESTED[1]
        base = draw(st.one_of(st.text("01", max_size=20), _random_bits(20)))
        member = st.builds(lambda i, z: base[:i] + "0" * z, st.integers(0, len(base)),
                           st.integers(0, 20))
    distinct = draw(st.lists(member, max_size=12, unique=True))
    copies = st.integers(1, 40) if draw(st.booleans()) else st.just(1)
    return [m for m in distinct for _ in range(draw(copies))], regime


@settings(max_examples=100, deadline=None)
@given(case=multisets())
@example(case=NESTED)
def test_encoder_matches_the_trie_walk(case):
    members, regime = case
    for family in FAMILIES:
        params = CodecParams(regime, family)
        enc = RangeEncoder()
        encode_members(members, params, enc)
        oracle = oracle_encode(members, params)
        assert enc.symbols_coded == oracle.symbols_coded
        assert enc.finish() == oracle.finish()


@settings(max_examples=100, deadline=None)
@given(case=multisets())
@example(case=NESTED)
def test_decoder_matches_the_trie_walk(case):
    members, regime = case
    want = sorted(map(BitString.from_str, members))
    cap = max(map(len, members), default=0)
    for family in FAMILIES:
        container = compress(members, CodecParams(regime, family))
        params, header_len = parse_header(container)
        reader = BitReader(container, start_bit=8 * header_len)
        n_members = read_fib(reader) - 1
        oracle = oracle_decode(params, n_members, RangeDecoder.from_reader(reader), cap)
        assert decompress(container) == oracle == want


@settings(max_examples=150, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=64),
        st.integers(0, 2**32).map(lambda seed: random.Random(seed).randbytes(64)),
    ),
    n_members=st.integers(0, 40),
    model=st.sampled_from(
        [
            UniformLength(0, 40),
            GeometricLength(Fraction(1, 4)),
            GeometricLength(Fraction(1)),
            PointLength(7),
        ]
    ),
)
# zeros: under BetaBin no member ever ends
@example(data=b"", n_members=5, model=UniformLength(0, 40))
def test_random_payloads_decode_as_the_trie_walk(data, n_members, model):
    # payloads that no encoder wrote: where a chain stops, and which
    # depths it leaves to one decision at a time, must not change what
    # decodes.  Under BetaBin the termination count ignores the hazard, so
    # members can pass the depth cap (the model's longest length, else
    # 40), or end at a length the model gives no mass, both of which the
    # codec refuses.
    regime = GeneralRegime(model)
    cap = 40 if model.max_length() is None else model.max_length()
    with mock.patch.object(treecodec, "DECODE_DEPTH_CAP", 40):
        for family in FAMILIES:
            params = CodecParams(regime, family)
            try:
                want = oracle_decode(params, n_members, RangeDecoder.from_bytes(data), cap)
            except AssertionError:
                want = None
            if want is None or not all(reference_hazard(model, len(m)) > 0 for m in want):
                with pytest.raises(CorruptStreamError):
                    decode_members(params, n_members, RangeDecoder.from_bytes(data))
            else:
                assert decode_members(params, n_members, RangeDecoder.from_bytes(data)) == want


@settings(max_examples=150, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=64),
        st.integers(0, 2**32).map(lambda seed: random.Random(seed).randbytes(64)),
    ),
    n_members=st.integers(0, 40),
    detector=st.sampled_from([FibTerminatorDetector(), FixedLengthDetector(7)]),
)
# value >= range: the equiprobable split's shift path on a payload that
# opens with eight 0xFF bytes
@example(data=b"\xff" * 8 + b"\x5a" * 8, n_members=1, detector=FibTerminatorDetector())
@example(data=b"\xff" * 8, n_members=7, detector=FibTerminatorDetector())
def test_random_payloads_decode_as_the_trie_walk_self_delimiting(data, n_members, detector):
    # payloads that no encoder wrote: a member's tail, decoded inside the
    # range decoder up to its first complete prefix, must decode as one
    # decision at a time does, and stop at the depth cap where the trie
    # walk does.  Binomial(1) gives outcome 0 of every split no mass.
    regime = SelfDelimitingRegime(detector)
    with mock.patch.object(treecodec, "DECODE_DEPTH_CAP", 40):
        for family in SELF_DELIMITING_FAMILIES:
            params = CodecParams(regime, family)
            try:
                want = oracle_decode(params, n_members, RangeDecoder.from_bytes(data), 40)
            except AssertionError:
                with pytest.raises(CorruptStreamError):
                    decode_members(params, n_members, RangeDecoder.from_bytes(data))
            else:
                assert decode_members(params, n_members, RangeDecoder.from_bytes(data)) == want


@settings(max_examples=150, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=64),
        st.integers(0, 2**32).map(lambda seed: random.Random(seed).randbytes(64)),
    ),
    n_members=st.integers(0, 40),
    length=st.sampled_from([1, 7, 64, 200]),
)
# value >= range: the equiprobable split's shift path on a payload that
# opens with eight 0xFF bytes
@example(data=b"\xff" * 8 + b"\x5a" * 8, n_members=1, length=200)
@example(data=b"\xff" * 8, n_members=7, length=64)
def test_random_payloads_decode_as_the_trie_walk_fixed(data, n_members, length):
    # payloads that no encoder wrote: where a chain stops, and the whole
    # bytes of depths the equiprobable split steps over at once, must not
    # change what decodes.  Every member ends at the fixed length, so any
    # payload decodes.
    regime = FixedRegime(length)
    for family in FIXED_FAMILIES:
        params = CodecParams(regime, family)
        want = oracle_decode(params, n_members, RangeDecoder.from_bytes(data), length)
        assert decode_members(params, n_members, RangeDecoder.from_bytes(data)) == want
