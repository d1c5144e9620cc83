"""Independent oracles used by the tests.

These deliberately avoid the library's own solution paths: the LP oracle
enumerates basic solutions instead of pivoting, and the integral oracles use
direct quadrature/series.  Expected values asserted in the tests were
computed (and are re-checked) with these.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from esl.lct import MonomialIdeal


def solve_square_system(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Exact Gaussian elimination; None when the matrix is singular."""
    size = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [v / pivot for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][size] for i in range(size)]


def lct_by_vertex_enumeration(ideal: MonomialIdeal) -> Fraction | None:
    """Threshold via exhaustive basic-solution enumeration of the same LP.

    Columns are lam_1..lam_g, t, s_1..s_n; rows are the n diagonal-entry
    constraints plus the simplex constraint.  Every square basis is solved
    exactly; the minimum feasible objective is returned (None means the
    threshold is infinite, i.e. the unit ideal).
    """
    if ideal.is_unit:
        return None
    gens = ideal.generators
    g, n = len(gens), ideal.n
    cols = g + 1 + n
    rows = n + 1

    def column(j: int) -> list[Fraction]:
        if j < g:
            return [Fraction(gens[j][i]) for i in range(n)] + [Fraction(1)]
        if j == g:
            return [Fraction(-1)] * n + [Fraction(0)]
        axis = j - g - 1
        return [Fraction(1) if i == axis else Fraction(0) for i in range(n)] + [Fraction(0)]

    rhs = [Fraction(0)] * n + [Fraction(1)]
    best: Fraction | None = None
    for basis in itertools.combinations(range(cols), rows):
        matrix = [[column(j)[i] for j in basis] for i in range(rows)]
        solution = solve_square_system(matrix, rhs)
        if solution is None or any(v < 0 for v in solution):
            continue
        t_value = Fraction(0)
        for var, value in zip(basis, solution):
            if var == g:
                t_value = value
        if g not in basis:
            t_value = Fraction(0)
        if best is None or t_value < best:
            best = t_value
    if best is None or best == 0:
        return None
    return 1 / best


def max_power_integral(s: float, eps: float, grid: int = 400) -> float:
    """Midpoint quadrature of max(x, y)^(-s) over [eps, 1]^2."""
    xs = np.geomspace(eps, 1.0, grid + 1)
    mids = np.sqrt(xs[:-1] * xs[1:])
    widths = np.diff(xs)
    X, Y = np.meshgrid(mids, mids, indexing="ij")
    W = np.outer(widths, widths)
    return float(np.sum(np.maximum(X, Y) ** (-s) * W))


def tail_power_selfconvolution_slope(exponent: float = -2.0 / 3.0,
                                     points: int = 6) -> float:
    """Blow-up slope at 0 of f*f for f(t) = c t^exponent on (0, 1].

    Quadrature of (f*f)(y) = int_0^y f(t) f(y-t) dt on a shrinking sequence
    of y, returning the fitted log-log slope.
    """
    c = 1.0 + exponent  # normalizes int_0^1 t^exponent dt to 1
    ys = np.geomspace(1e-6, 1e-2, points)
    values = []
    for y in ys:
        t = np.linspace(y * 1e-4, y * (1 - 1e-4), 20001)
        f1 = c * t**exponent
        f2 = c * (y - t) ** exponent
        values.append(float(np.trapezoid(f1 * f2, t)))
    slope = np.polyfit(np.log(ys), np.log(values), 1)[0]
    return float(slope)


def char_function_magnitudes(values: np.ndarray, t_grid) -> np.ndarray:
    """|mean(exp(i t y))| per frequency, in complex128."""
    return np.array([abs(np.exp(1j * t * values).mean()) for t in t_grid])
