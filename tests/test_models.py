"""Length models: exact hazards; end detectors: completion predicates."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msetzip.models import (
    EndDetector,
    FibTerminatorDetector,
    FixedLengthDetector,
    GeometricLength,
    LengthModel,
    PointLength,
    UniformLength,
)
from msetzip.rangecoder import RangeDecoder, RangeEncoder
from msetzip.treecodec import (
    CodecParams,
    GeneralRegime,
    SelfDelimitingRegime,
    decode_members,
    encode_members,
    ideal_codelength,
)

SHIPPED_MODELS = [
    PointLength(0),
    PointLength(1),
    PointLength(37),
    UniformLength(0, 0),
    UniformLength(0, 5),
    UniformLength(3, 3),
    UniformLength(12, 400),
    GeometricLength(Fraction(1)),
    GeometricLength(Fraction(1, 2)),
    GeometricLength(Fraction(1, 4)),
    GeometricLength(Fraction(99, 100)),
]


def reference_hazard(model, d: int) -> Fraction:
    """theta_T(d) = L(d) / (1 - sum_{k<d} L(k)) from the model's pmf and
    cdf_below, the definition the models' closed-form hazards are checked
    against, and the one the oracles use; ValueError where no mass is left
    at depths >= d."""
    residual = 1 - model.cdf_below(d)
    if residual <= 0:
        raise ValueError(f"length model has no mass at depth >= {d}")
    return model.pmf(d) / residual


class Bare:
    """A length model with pmf, cdf_below and max_length, but neither of
    the hazard methods the codec reads."""

    def pmf(self, k):
        return Fraction(1) if k == 3 else Fraction(0)

    def cdf_below(self, d):
        return Fraction(1) if d > 3 else Fraction(0)

    def max_length(self):
        return 3


class HazardOnly(Bare):
    """Bare with a hazard, but no same_hazard_until."""

    def hazard(self, d):
        return reference_hazard(self, d)


class IsCompleteOnly:
    """A detector that answers is_complete, but not first_complete."""

    def is_complete(self, prefix):
        return len(prefix) == 3


class TestHazard:
    def test_uniform_1_to_3(self):
        # survival renormalizes the per-depth rate: 0, 1/3, 1/2, 1
        m = UniformLength(1, 3)
        assert m.hazard(0) == Fraction(0)
        assert m.hazard(1) == Fraction(1, 3)
        assert m.hazard(2) == Fraction(1, 2)
        assert m.hazard(3) == Fraction(1)
        with pytest.raises(ValueError):
            m.hazard(4)

    def test_point(self):
        m = PointLength(5)
        for d in range(5):
            assert m.hazard(d) == 0
        assert m.hazard(5) == 1
        with pytest.raises(ValueError):
            m.hazard(6)

    def test_point_zero_allows_empty_members(self):
        m = PointLength(0)
        assert m.hazard(0) == 1

    def test_geometric_is_memoryless(self):
        p = Fraction(2, 7)
        m = GeometricLength(p)
        assert m.hazard(0) == 0
        for d in range(1, 40):
            assert m.hazard(d) == p

    @pytest.mark.parametrize(
        "m",
        list(
            dict.fromkeys(
                SHIPPED_MODELS
                + [PointLength(length) for length in range(8)]
                + [UniformLength(lo, hi) for hi in range(12) for lo in range(hi + 1)]
                + [GeometricLength(Fraction(3, 11))]
            )
        ),
        ids=repr,
    )
    def test_closed_form_matches_the_definition(self, m):
        # every depth up to two past the longest length (40 for an
        # unbounded model): the definition's value, and past the longest
        # length the ValueError of a model with no mass left
        longest = m.max_length()
        for d in range((40 if longest is None else longest) + 3):
            try:
                want = reference_hazard(m, d)
            except ValueError:
                with pytest.raises(ValueError):
                    m.hazard(d)
            else:
                assert m.hazard(d) == want

    def test_hazards_reconstruct_pmf(self):
        # survival * hazard telescopes back to L(k)
        m = UniformLength(2, 6)
        survival = Fraction(1)
        for d in range(0, 7):
            th = m.hazard(d)
            assert survival * th == m.pmf(d)
            survival *= 1 - th
        assert survival == 0


def _deepest(model) -> int:
    """The deepest depth with a hazard, or 1000 where every depth has one."""
    longest = model.max_length()
    return 1000 if longest is None else longest


class TestSameHazardUntil:
    @given(
        st.sampled_from(SHIPPED_MODELS).flatmap(
            lambda m: st.tuples(st.just(m), st.integers(0, _deepest(m)))
        )
    )
    @example((PointLength(0), 0))
    @example((GeometricLength(Fraction(1)), 0))
    @example((GeometricLength(Fraction(1)), 1))
    @example((UniformLength(12, 400), 11))
    @settings(max_examples=400, deadline=None)
    def test_every_depth_of_a_stretch_has_its_hazard(self, case):
        # every depth in [d, until) has d's hazard; where until is None, a
        # window of 300 depths stands for every later one
        model, d = case
        until = model.same_hazard_until(d)
        assert until is None or until > d
        top = d + 300 if until is None else min(until, d + 300)
        if model.max_length() is not None:
            top = min(top, model.max_length() + 1)
        h = model.hazard(d)
        for e in range(d, top):
            assert model.hazard(e) == h

    def test_shipped_stretches(self):
        assert [PointLength(5).same_hazard_until(d) for d in (0, 4, 5)] == [5, 5, 6]
        assert [UniformLength(3, 9).same_hazard_until(d) for d in (0, 2, 3, 9)] == [3, 3, 4, 10]
        geometric = GeometricLength(Fraction(1, 3))
        assert [geometric.same_hazard_until(d) for d in (0, 1, 500)] == [1, None, None]
        assert [GeometricLength(Fraction(1)).same_hazard_until(d) for d in (0, 1)] == [1, 2]


class TestMissingMethods:
    @pytest.mark.parametrize(
        "regime, method",
        [
            (GeneralRegime(Bare()), "hazard"),
            (GeneralRegime(HazardOnly()), "same_hazard_until"),
            (SelfDelimitingRegime(IsCompleteOnly()), "first_complete"),
        ],
        ids=["model-without-hazard", "model-without-stretches", "detector-without-first_complete"],
    )
    def test_fails_naming_the_method_before_coding(self, regime, method):
        # the codec has no fallback for a protocol method: the call fails
        # where it binds the method, before the first symbol, on every side
        params = CodecParams(regime)
        members = ["010", "010", "111"]
        enc = RangeEncoder()
        with pytest.raises(AttributeError, match=f"'{method}'"):
            encode_members(members, params, enc)
        assert enc.symbols_coded == 0
        with pytest.raises(AttributeError, match=f"'{method}'"):
            ideal_codelength(members, params)
        with pytest.raises(AttributeError, match=f"'{method}'"):
            decode_members(params, 3, RangeDecoder.from_bytes(bytes(8)))


class TestLengthModels:
    @pytest.mark.parametrize(
        "m",
        [PointLength(4), UniformLength(0, 5), UniformLength(3, 3)],
        ids=repr,
    )
    def test_bounded_models_sum_to_one(self, m):
        total = sum(m.pmf(k) for k in range(m.max_length() + 1))
        assert total == 1

    def test_geometric_pmf(self):
        m = GeometricLength(Fraction(1, 3))
        assert m.pmf(0) == 0
        assert m.pmf(1) == Fraction(1, 3)
        assert m.pmf(4) == Fraction(8, 81)
        assert m.cdf_below(4) == Fraction(1, 3) + Fraction(2, 9) + Fraction(4, 27)
        assert m.max_length() is None

    def test_geometric_degenerate(self):
        m = GeometricLength(Fraction(1))
        assert m.max_length() == 1
        assert m.pmf(1) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            PointLength(-1)
        with pytest.raises(ValueError):
            UniformLength(4, 2)
        with pytest.raises(ValueError):
            GeometricLength(Fraction(0))
        with pytest.raises(ValueError):
            GeometricLength(Fraction(3, 2))

    def test_protocol_conformance(self):
        for m in (PointLength(1), UniformLength(1, 2), GeometricLength(Fraction(1, 2))):
            assert isinstance(m, LengthModel)
        assert not isinstance(Bare(), LengthModel)
        assert not isinstance(HazardOnly(), LengthModel)


class TestDetectors:
    def test_fib_terminator(self):
        d = FibTerminatorDetector()
        assert not d.is_complete([])
        assert not d.is_complete([1])
        assert d.is_complete([1, 1])
        assert d.is_complete([0, 1, 1])
        assert not d.is_complete([1, 1, 0])  # extension broke the suffix
        assert d.is_complete([1, 0, 0, 1, 1])

    def test_fixed_length(self):
        d = FixedLengthDetector(3)
        assert not d.is_complete([0, 1])
        assert d.is_complete([0, 1, 0])
        assert not d.is_complete([0, 1, 0, 1])
        with pytest.raises(ValueError):
            FixedLengthDetector(0)

    def test_protocol_conformance(self):
        assert isinstance(FibTerminatorDetector(), EndDetector)
        assert isinstance(FixedLengthDetector(2), EndDetector)
        assert not isinstance(IsCompleteOnly(), EndDetector)

    @given(
        st.just(FibTerminatorDetector()) | st.builds(FixedLengthDetector, st.integers(1, 40)),
        st.integers(0, 48).flatmap(lambda n: st.tuples(st.integers(0, (1 << n) - 1), st.just(n))),
    )
    @example(FibTerminatorDetector(), (0b1101, 4))  # the first 11, not the last
    @example(FibTerminatorDetector(), (0b1010, 4))
    @example(FibTerminatorDetector(), (0, 0))
    @example(FixedLengthDetector(3), (0b01, 2))
    @example(FixedLengthDetector(3), (0b0110, 4))
    @settings(max_examples=400, deadline=None)
    def test_first_complete_is_the_first_complete_prefix(self, detector, member):
        value, nbits = member
        bits = bytearray(value >> (nbits - 1 - i) & 1 for i in range(nbits))
        first = next((p for p in range(nbits + 1) if detector.is_complete(bits[:p])), None)
        assert detector.first_complete(value, nbits) == first
