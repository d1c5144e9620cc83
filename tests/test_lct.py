import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from esl.lct import (
    Divisor,
    MonomialIdeal,
    ResolutionData,
    lct_from_resolution,
    lct_monomial,
    lct_principal_monomial,
)
from esl.values import ExponentValue, FieldValidity

from .oracles import lct_by_vertex_enumeration, max_power_integral


def ideal(n, *gens):
    return MonomialIdeal.from_vectors(n, gens)


class TestLctMonomialExamples:
    @pytest.mark.parametrize("m", range(2, 7))
    def test_symmetric_near_diagonal_pair(self, m):
        got = lct_monomial(ideal(2, (m - 1, m), (m, m - 1)))
        assert got.value == ExponentValue(Fraction(1, 1) / (m - Fraction(1, 2)))
        assert got.validity is FieldValidity.ALL_LOCAL_FIELDS

    def test_coordinate_axes_value_two(self):
        # Independent oracle: the integral of max(x,y)^(-s) over the unit
        # square stays bounded under domain refinement for s < 2 and blows
        # up for s > 2, so the threshold is 2.
        below = [max_power_integral(1.8, eps) for eps in (1e-3, 1e-5, 1e-7)]
        above = [max_power_integral(2.2, eps) for eps in (1e-3, 1e-5, 1e-7)]
        assert below[2] - below[1] < below[1] - below[0] + 1e-6
        assert above[2] - above[1] > 2 * (above[1] - above[0])
        assert lct_monomial(ideal(2, (1, 0), (0, 1))).value == ExponentValue(2)

    def test_unit_ideal_infinite(self):
        assert lct_monomial(ideal(2, (0, 0))).value.is_infinite

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, ())

    @pytest.mark.parametrize("n,m", list(itertools.product(range(2, 6), range(2, 7))))
    def test_product_power_gradient_family(self, n, m):
        gens = []
        for j in range(n):
            vec = [m] * n
            vec[j] = m - 1
            gens.append(tuple(vec))
        got = lct_monomial(ideal(n, *gens)).value
        assert got == ExponentValue(Fraction(n, n * m - 1))


class TestLctPrincipalMonomial:
    def test_one_variable_power(self):
        for d in range(1, 10):
            assert lct_principal_monomial((d,)).value == ExponentValue(Fraction(1, d))

    def test_diagonal_power(self):
        for n in (1, 2, 5):
            assert lct_principal_monomial((3,) * n).value == ExponentValue(Fraction(1, 3))

    def test_smooth_is_one(self):
        assert lct_principal_monomial((1,)).value == ExponentValue(1)

    def test_zero_exponents_ignored(self):
        assert lct_principal_monomial((0, 4, 0)).value == ExponentValue(Fraction(1, 4))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            lct_principal_monomial((0, 0))

    def test_agrees_with_newton_polyhedron(self):
        for exps in [(3, 1), (2, 2), (5, 0), (1, 4, 2)]:
            via_lp = lct_monomial(ideal(len(exps), exps)).value
            assert via_lp == lct_principal_monomial(exps).value


class TestLctFromResolution:
    def test_single_divisor(self):
        for d in (1, 3, 7):
            data = ResolutionData.of([(d, 0, True)])
            assert lct_from_resolution(data).value == ExponentValue(Fraction(1, d))

    def test_min_over_divisors(self):
        data = ResolutionData.of([(3, 1, True), (5, 0, True)])
        assert lct_from_resolution(data).value == ExponentValue(Fraction(1, 5))

    def test_divisors_missing_the_point_ignored(self):
        data = ResolutionData.of([(100, 0, False), (2, 1, True)])
        assert lct_from_resolution(data).value == ExponentValue(1)

    def test_no_divisor_through_point(self):
        with pytest.raises(ValueError):
            lct_from_resolution(ResolutionData.of([(2, 0, False)]))

    def test_invalid_multiplicities(self):
        with pytest.raises(ValueError):
            Divisor(0, 0, True)
        with pytest.raises(ValueError):
            Divisor(1, -1, True)


small_vectors = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
    min_size=1, max_size=5,
).filter(lambda vs: all(any(e > 0 for e in v) for v in vs))


class TestLctProperties:
    @given(small_vectors, st.integers(2, 4))
    def test_scaling_divides_threshold(self, vectors, c):
        base = lct_monomial(MonomialIdeal.from_vectors(3, vectors)).value
        scaled = lct_monomial(MonomialIdeal.from_vectors(
            3, [tuple(c * e for e in v) for v in vectors])).value
        assert scaled == ExponentValue(base.fraction / c)

    @given(small_vectors, st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)))
    def test_adding_generator_never_decreases(self, vectors, extra):
        base = lct_monomial(MonomialIdeal.from_vectors(3, vectors)).value
        bigger = lct_monomial(MonomialIdeal.from_vectors(3, vectors + [extra])).value
        assert bigger >= base

    @given(small_vectors, st.permutations([0, 1, 2]))
    def test_permutation_invariance(self, vectors, perm):
        base = lct_monomial(MonomialIdeal.from_vectors(3, vectors)).value
        permuted = lct_monomial(MonomialIdeal.from_vectors(
            3, [tuple(v[perm[i]] for i in range(3)) for v in vectors])).value
        assert base == permuted

    @given(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
           .filter(lambda v: any(e > 0 for e in v)))
    def test_single_generator_agrees_with_principal(self, vec):
        via_lp = lct_monomial(MonomialIdeal.from_vectors(3, [vec])).value
        assert via_lp == lct_principal_monomial(vec).value

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.integers(0, 5), st.integers(0, 5)),
                    min_size=1, max_size=6))
    def test_lp_matches_vertex_enumeration_oracle(self, vectors):
        ideal_ = MonomialIdeal.from_vectors(4, vectors)
        via_simplex = lct_monomial(ideal_).value
        via_oracle = lct_by_vertex_enumeration(ideal_)
        if via_oracle is None:
            assert via_simplex.is_infinite
        else:
            assert via_simplex == ExponentValue(via_oracle)

    @given(small_vectors)
    def test_threshold_always_positive(self, vectors):
        value = lct_monomial(MonomialIdeal.from_vectors(3, vectors)).value
        assert value.is_infinite or value.fraction > 0
