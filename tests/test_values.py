"""Value semantics of every public value type: equality and hash over the
fields, never across classes, the Name(field=value, ...) repr, no
assignment or deletion, copies and pickles equal to the original, and
constructor checks."""

import copy
import pickle
from fractions import Fraction

import pytest

from msetzip import (
    BetaBinomialFamily,
    BinomialFamily,
    BitString,
    CodecParams,
    CompressResult,
    FibTerminatorDetector,
    FixedLengthDetector,
    FixedRegime,
    GeneralRegime,
    GeometricLength,
    IntMultiset,
    PointLength,
    SelfDelimitingRegime,
    UniformLength,
)

# (class, constructor arguments, repr, arguments the constructor refuses)
CASES = [
    (BitString, (b"\xbf", 3), "BitString('101')", [(b"", 1), (b"\x00", -1)]),
    (PointLength, (3,), "PointLength(length=3)", [(-1,)]),
    (UniformLength, (1, 4), "UniformLength(lo=1, hi=4)", [(4, 1), (-1, 2)]),
    (
        GeometricLength,
        (Fraction(1, 4),),
        "GeometricLength(p=Fraction(1, 4))",
        [(Fraction(0),), (Fraction(3, 2),)],
    ),
    (FibTerminatorDetector, (), "FibTerminatorDetector()", []),
    (FixedLengthDetector, (3,), "FixedLengthDetector(length=3)", [(0,)]),
    (
        BinomialFamily,
        (Fraction(1, 3),),
        "BinomialFamily(theta=Fraction(1, 3))",
        [(Fraction(-1, 2),), (Fraction(2),)],
    ),
    (
        BetaBinomialFamily,
        (Fraction(1, 2), Fraction(2)),
        "BetaBinomialFamily(alpha=Fraction(1, 2), beta=Fraction(2, 1))",
        [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(-1))],
    ),
    (FixedRegime, (3,), "FixedRegime(length=3)", [(0,)]),
    (
        SelfDelimitingRegime,
        (FibTerminatorDetector(),),
        "SelfDelimitingRegime(detector=FibTerminatorDetector())",
        [],
    ),
    (
        GeneralRegime,
        (GeometricLength(Fraction(1, 4)),),
        "GeneralRegime(length_model=GeometricLength(p=Fraction(1, 4)))",
        [],
    ),
    (
        CodecParams,
        (FixedRegime(3), BetaBinomialFamily()),
        "CodecParams(regime=FixedRegime(length=3), "
        "family=BetaBinomialFamily(alpha=Fraction(1, 2), beta=Fraction(1, 2)))",
        [],
    ),
    (
        CompressResult,
        (b"MSZ1", 56, 2, 10, 4),
        "CompressResult(data=b'MSZ1', header_bits=56, n_header_bits=2, payload_bits=10, "
        "coded_decisions=4)",
        [],
    ),
    (
        IntMultiset,
        (3, (0, 2, 1)),
        "IntMultiset(k=3, counts=(0, 2, 1))",
        [(0, ()), (2, (1,)), (2, (1, -1))],
    ),
]


@pytest.mark.parametrize("cls, args, text, bad", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_semantics(cls, args, text, bad):
    value = cls(*args)
    fields = cls.__match_args__
    assert len(fields) == len(args)
    # keyword construction names the fields
    same = cls(**dict(zip(fields, args)))
    assert same == value and not same != value and hash(same) == hash(value)
    assert repr(value) == text

    # a subclass with the same fields, and every other value type, differ
    twin = type("Twin", (cls,), {"__slots__": ()})(*args)
    assert twin != value and value != twin
    for other_cls, other_args, _, _ in CASES:
        if other_cls is not cls:
            assert other_cls(*other_args) != value

    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == same

    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert type(c) is cls and c == value and hash(c) == hash(value)
        assert [getattr(c, f) for f in fields] == [getattr(value, f) for f in fields]

    for refused in bad:
        with pytest.raises(ValueError):
            cls(*refused)


def test_defaults():
    assert BinomialFamily() == BinomialFamily(Fraction(1, 2))
    assert BetaBinomialFamily() == BetaBinomialFamily(Fraction(1, 2), Fraction(1, 2))
    assert CodecParams(FixedRegime(8)).family == BinomialFamily()


def test_int_multiset_from_a_list_is_a_frozen_value():
    # the counts are stored as a tuple: the value hashes, and changing the
    # list it was built from leaves it as it was
    counts = [1, 0, 0]
    value = IntMultiset(3, counts)
    assert value == IntMultiset(3, (1, 0, 0)) and hash(value) == hash(IntMultiset(3, (1, 0, 0)))
    counts[0] = 5
    assert value.counts == (1, 0, 0) and value.n == 1
