"""Exact linear programming over the rationals.

Two-phase primal simplex with Bland's rule on an integer tableau: one
global scale clears every denominator, and each pivot is Edmonds'
fraction-free update, whose divisions by the previous pivot (the common
denominator D) are exact.  Bland's rule terminates on every instance
without tolerance knobs, and optima are exact rationals.  The LPs here are
tiny, so no effort is spent on sparsity or revised-simplex updates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


class InfeasibleError(ValueError):
    """The constraint system A x = b, x >= 0 has no solution."""


class UnboundedError(ValueError):
    """The objective is unbounded below on the feasible region."""


def solve_min(cost: Sequence[Fraction], eq_matrix: Sequence[Sequence[Fraction]],
              eq_rhs: Sequence[Fraction]) -> tuple[Fraction, list[Fraction]]:
    """Minimize cost.x subject to eq_matrix @ x = eq_rhs and x >= 0.

    Entries may be ints or Fractions.  Returns the optimal value and one optimal
    vertex, both exact.  Raises InfeasibleError or UnboundedError accordingly.
    """
    num_rows, num_cols = len(eq_matrix), len(cost)
    if any(len(row) != num_cols for row in eq_matrix) or len(eq_rhs) != num_rows:
        raise ValueError("inconsistent LP dimensions")

    # Scale [A | b] by one global L and make every right-hand side
    # nonnegative.  The artificial block stays the identity, which scales
    # every artificial by the same L and leaves Bland's pivot sequence as it is.
    _, flat = _clear_denominators([v for row, b in zip(eq_matrix, eq_rhs) for v in (*row, b)])
    rows = [flat[k:k + num_cols + 1] for k in range(0, len(flat), num_cols + 1)]
    rows = [[-v for v in row] if row[-1] < 0 else row for row in rows]
    tableau = [row[:-1] + [int(j == i) for j in range(num_rows)] + row[-1:]
               for i, row in enumerate(rows)]
    basis = [num_cols + i for i in range(num_rows)]

    # Phase I.  The objective row, kept last, holds D times the reduced costs
    # of the sum of the artificials, and -D times that sum in its last entry.
    sums = [-sum(col) for col in zip(*tableau, [0] * (num_cols + num_rows + 1))]
    tableau.append(sums[:num_cols] + [0] * num_rows + sums[-1:])
    denom = _run_simplex(tableau, basis, 1, num_cols + num_rows)
    if tableau[-1][-1] != 0:
        raise InfeasibleError("no feasible point")

    # Drive artificials still basic (at level 0) out; a redundant row keeps its own.
    for i, var in enumerate(basis):
        pivot_col = next((j for j in range(num_cols) if tableau[i][j]), None)
        if var >= num_cols and pivot_col is not None:
            denom = _pivot(tableau, basis, denom, i, pivot_col)
            if denom < 0:  # negate the tableau so D stays positive
                tableau[:] = [[-v for v in row] for row in tableau]
                denom = -denom

    # Phase II on the original columns only.  The objective row is rebuilt as
    # D K c - sum_i K c_B(i) T_i, where K clears the cost denominators.
    cost_scale, scaled_cost = _clear_denominators(cost)
    tableau = [row[:num_cols] + row[-1:] for row in tableau[:-1]]
    objective = [denom * v for v in scaled_cost] + [0]
    for var, row in zip(basis, tableau):
        if var < num_cols and scaled_cost[var]:
            objective = [o - scaled_cost[var] * v for o, v in zip(objective, row)]
    tableau.append(objective)
    denom = _run_simplex(tableau, basis, denom, num_cols)

    levels = {var: row[-1] for var, row in zip(basis, tableau)}
    solution = [Fraction(levels.get(j, 0), denom) for j in range(num_cols)]
    return Fraction(-tableau[-1][-1], denom * cost_scale), solution


def _clear_denominators(values) -> tuple[int, list[int]]:
    """The lcm L of the denominators of values, and the integers L * v."""
    values = [v if isinstance(v, int) else Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _run_simplex(tableau, basis, denom: int, eligible_cols: int) -> int:
    """Iterate Bland-rule pivots until optimal; returns the common denominator."""
    while True:
        entering = next((j for j in range(eligible_cols) if tableau[-1][j] < 0), None)
        if entering is None:
            return denom

        # Ratio test by integer cross-multiplication; Bland's rule breaks
        # ties by smallest basis variable index.
        leaving = None
        for i, row in enumerate(tableau[:-1]):
            if row[entering] <= 0:
                continue
            if leaving is not None:
                best = tableau[leaving]
                lhs, rhs = row[-1] * best[entering], best[-1] * row[entering]
                if lhs > rhs or (lhs == rhs and basis[i] > basis[leaving]):
                    continue
            leaving = i
        if leaving is None:
            raise UnboundedError("objective unbounded below")

        denom = _pivot(tableau, basis, denom, leaving, entering)


def _pivot(tableau, basis, denom: int, row: int, col: int) -> int:
    """Edmonds' pivot T_i <- (p T_i - T_i[col] T_row) / D; returns the new D, p."""
    pivot_row, pivot = tableau[row], tableau[row][col]
    for i, other in enumerate(tableau):
        if i != row:
            factor = other[col]
            tableau[i] = [(pivot * a - factor * b) // denom for a, b in zip(other, pivot_row)]
    basis[row] = col
    return pivot
