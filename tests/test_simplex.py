from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from esl.simplex import InfeasibleError, UnboundedError, solve_min

from .oracles import solve_min_fraction

F = Fraction


def test_simple_assignment():
    # min x1 + x2  s.t.  x1 + x2 = 1  ->  value 1
    value, x = solve_min([F(1), F(1)], [[F(1), F(1)]], [F(1)])
    assert value == 1
    assert sum(x) == 1


def test_prefers_cheap_variable():
    # min 3 x1 + x2  s.t.  x1 + x2 = 1
    value, x = solve_min([F(3), F(1)], [[F(1), F(1)]], [F(1)])
    assert value == 1 and x == [F(0), F(1)]


def test_two_constraints_exact_vertex():
    # min x1 + 2 x2  s.t.  x1 + x2 = 2,  x1 - x2 = 0  ->  x = (1, 1)
    value, x = solve_min(
        [F(1), F(2)],
        [[F(1), F(1)], [F(1), F(-1)]],
        [F(2), F(0)])
    assert value == 3 and x == [F(1), F(1)]


def test_negative_rhs_normalized():
    value, x = solve_min([F(1)], [[F(-1)]], [F(-2)])
    assert value == 2 and x == [F(2)]


def test_infeasible():
    # x1 = -1 with x1 >= 0
    with pytest.raises(InfeasibleError):
        solve_min([F(1)], [[F(1)]], [F(-1)])


def test_infeasible_two_rows():
    with pytest.raises(InfeasibleError):
        solve_min([F(0), F(0)],
                  [[F(1), F(1)], [F(1), F(1)]],
                  [F(1), F(2)])


def test_unbounded():
    # min -x1 s.t. x1 - x2 = 0: increase both without bound
    with pytest.raises(UnboundedError):
        solve_min([F(-1), F(0)], [[F(1), F(-1)]], [F(0)])


def test_degenerate_cycling_guard():
    # Classic degenerate instance; Bland's rule must terminate.
    value, _ = solve_min(
        [F(-3, 4), F(150), F(-1, 50), F(6), F(0), F(0), F(0)],
        [
            [F(1, 4), F(-60), F(-1, 25), F(9), F(1), F(0), F(0)],
            [F(1, 2), F(-90), F(-1, 50), F(3), F(0), F(1), F(0)],
            [F(0), F(0), F(1), F(0), F(0), F(0), F(1)],
        ],
        [F(0), F(0), F(1)])
    assert value == F(-1, 20)


def test_exact_rationals_no_drift():
    value, x = solve_min(
        [F(1, 3), F(1, 7)],
        [[F(2, 5), F(3, 11)]],
        [F(1)])
    # cost/constraint ratio decides: (1/3)/(2/5) = 5/6 vs (1/7)/(3/11) = 11/21
    assert value == F(11, 21)
    assert x == [F(0), F(11, 3)]


def _outcome(solver, cost, matrix, rhs):
    """(value, vertex), or the exception type the solver raised."""
    try:
        return solver(cost, matrix, rhs)
    except (InfeasibleError, UnboundedError) as exc:
        return type(exc)


BEALE = (
    [F(-3, 4), F(150), F(-1, 50), F(6), F(0), F(0), F(0)],
    [
        [F(1, 4), F(-60), F(-1, 25), F(9), F(1), F(0), F(0)],
        [F(1, 2), F(-90), F(-1, 50), F(3), F(0), F(1), F(0)],
        [F(0), F(0), F(1), F(0), F(0), F(0), F(1)],
    ],
    [F(0), F(0), F(1)])


@pytest.mark.parametrize("lp, expected", [
    # Rational and negative entries, one negative right-hand side.
    (([F(1, 2), F(1), F(3, 4), F(2, 5)],
      [[F(2, 3), F(-1, 2), F(1), F(0)], [F(-1), F(5, 7), F(-1, 3), F(1)]],
      [F(-1, 2), F(1, 3)]),
     (F(47, 3), [F(8), F(35, 3), F(0), F(0)])),
    # A zero row: its artificial stays basic through phase II.
    (([F(1), F(2), F(0)], [[F(1), F(1), F(1)], [F(0), F(0), F(0)], [F(1), F(-1), F(0)]],
      [F(2), F(0), F(0)]),
     (F(0), [F(0), F(0), F(2)])),
    # A redundant row (twice the first): its artificial stays basic.
    (([F(2), F(1), F(3)], [[F(1), F(2), F(1)], [F(2), F(4), F(2)], [F(1), F(-1), F(0)]],
      [F(3), F(6), F(0)]),
     (F(3), [F(1), F(1), F(0)])),
    # Driving the last artificial out pivots on a negative entry.
    (([1, 1, 1], [[1, -1, 1], [0, -1, 1]], [0, 0]),
     (F(0), [F(0), F(0), F(0)])),
    # Ratio-test ties, decided by the smallest basis index.
    (([-1, 1, 1, 1, 1, 1], [[1, 1, 1, 1, 0, 1], [-1, 2, 1, 0, 1, -1], [-1, 0, 1, 0, 1, 1]],
      [1, 2, 2]),
     (F(2), [F(1), F(0), F(0), F(0), F(3), F(0)])),
    (([1, 0, 0, 0, 0, -1], [[0, 1, 1, 0, 0, 1], [2, 1, 2, 0, -1, 0]], [1, 1]),
     (F(-1, 2), [F(1, 2), F(0), F(0), F(0), F(0), F(1)])),
    # Beale's cycling instance: Bland's rule terminates at the optimum.
    (BEALE, (F(-1, 20), [F(1, 25), F(0), F(1), F(0), F(3, 100), F(0), F(0)])),
    # Infeasible: a zero row with a nonzero right-hand side.
    (([F(1), F(1)], [[F(1), F(1)], [F(0), F(0)]], [F(1), F(1)]), InfeasibleError),
    # Infeasible: x1 - x2 = -1 and x2 - x1 = -1.
    (([1, 1], [[1, -1], [-1, 1]], [-1, -1]), InfeasibleError),
    # Unbounded along a ray of the feasible set.
    (([F(-1, 2), F(0)], [[F(1, 3), F(-1, 2)]], [F(1)]), UnboundedError),
])
def test_matches_fraction_oracle_on_named_cases(lp, expected):
    assert _outcome(solve_min, *lp) == expected
    assert _outcome(solve_min_fraction, *lp) == expected


RATIONALS = st.one_of(st.integers(-4, 4),
                      st.fractions(min_value=-5, max_value=5, max_denominator=7))
# Few distinct small entries make ratio-test ties and degenerate pivots common.
SMALL = st.sampled_from([-1, 0, 0, 1, 1, 2])


@st.composite
def small_lps(draw):
    """LPs with m <= 4 rows and n <= 6 columns, some with a redundant or a zero
    second row; half are feasible by construction."""
    m, n = draw(st.integers(0, 4)), draw(st.integers(1, 6))
    vectors = st.lists(draw(st.sampled_from([RATIONALS, SMALL])), min_size=n, max_size=n)
    matrix = draw(st.lists(vectors, min_size=m, max_size=m))
    if m >= 2:
        matrix[1] = draw(st.sampled_from([matrix[1], [2 * v for v in matrix[0]], [0] * n]))
    if draw(st.booleans()):
        point = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        rhs = [sum(F(a) * x for a, x in zip(row, point)) for row in matrix]
    else:
        rhs = draw(st.lists(RATIONALS, min_size=m, max_size=m))
    return draw(vectors), matrix, rhs


@settings(max_examples=400)
@given(small_lps())
def test_matches_fraction_oracle(lp):
    # Same pivot rule, so the same value and vertex, or the same exception.
    assert _outcome(solve_min, *lp) == _outcome(solve_min_fraction, *lp)


def test_returns_fractions_for_int_input():
    value, x = solve_min([1, 2], [[1, 1]], [3])
    assert (value, x) == (F(3), [F(3), F(0)])
    assert all(type(v) is Fraction for v in [value, *x])
