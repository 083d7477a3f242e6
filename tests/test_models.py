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
    hazard,
)


class TestHazard:
    def test_uniform_1_to_3(self):
        # survival renormalizes the per-depth rate: 0, 1/3, 1/2, 1
        m = UniformLength(1, 3)
        assert hazard(m, 0) == Fraction(0)
        assert hazard(m, 1) == Fraction(1, 3)
        assert hazard(m, 2) == Fraction(1, 2)
        assert hazard(m, 3) == Fraction(1)
        with pytest.raises(ValueError):
            hazard(m, 4)

    def test_point(self):
        m = PointLength(5)
        for d in range(5):
            assert hazard(m, d) == 0
        assert hazard(m, 5) == 1
        with pytest.raises(ValueError):
            hazard(m, 6)

    def test_point_zero_allows_empty_members(self):
        m = PointLength(0)
        assert hazard(m, 0) == 1

    def test_geometric_is_memoryless(self):
        p = Fraction(2, 7)
        m = GeometricLength(p)
        assert hazard(m, 0) == 0
        for d in range(1, 40):
            assert hazard(m, d) == p

    def test_geometric_shortcut_matches_generic_formula(self):
        m = GeometricLength(Fraction(3, 11))
        for d in range(1, 12):
            assert m.hazard(d) == m.pmf(d) / (1 - m.cdf_below(d))
        with pytest.raises(ValueError):
            GeometricLength(Fraction(1)).hazard(2)

    def test_hazards_reconstruct_pmf(self):
        # survival * hazard telescopes back to L(k)
        m = UniformLength(2, 6)
        survival = Fraction(1)
        for d in range(0, 7):
            th = hazard(m, d)
            assert survival * th == m.pmf(d)
            survival *= 1 - th
        assert survival == 0


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
