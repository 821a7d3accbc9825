"""Exact linear programming over rationals.

One problem form: minimize c.x subject to A x = b and x >= 0, every row an
equality.  A and c are `int`s and b is exact, each entry an `int` or a
`fractions.Fraction`; results are exact `Fraction`s.  A small two-phase
primal simplex whose tableau holds Python `int`s.  This is fraction-free
pivoting (Edmonds 1967; Bareiss 1968) on one invariant: with B the basic
columns of A, every row is d*(B^-1 A)_i for one scale d = |det B| shared by
all rows.  A pivot on p replaces each other row by
(p*row - row[c]*pivot_row) // d, and p becomes the scale.  The division is
exact: d*B^-1 = adj B up to sign, so every entry before and after a pivot is
an integer minor of A (Cramer's rule).  A positive common scale changes no
sign and no ratio, so every pivot is the one the `Fraction` tableau would
make, without its per-entry gcd and object construction; the ratio test
cross-multiplies.  Bland's rule is used for both the entering and leaving
choices, so a simplex run over a fixed set of columns cannot cycle.  Phase
two's columns are fixed; in phase one they are fixed between the pivots at
which artificials leave (below), and only finitely many can leave.  So the
solver terminates on every input.
Degenerate and redundant constraints are tolerated; redundant rows left
over from phase one are dropped.

Phase one gives every equality row its own artificial variable of cost 1,
which starts in the basis, so the start is B = I and d = 1.  Artificials
have no column: the tableau rows are [A | den*b] from the start, the layout
phase two uses, and the first reduced-cost row is minus their column sums.
Only the LP's own columns can enter, and an artificial that leaves the
basis is never needed again (Chvatal 1983, ch. 8).  The rows are the
caller's own, unscaled; only the right-hand sides are put over one common
denominator.  So for the two-body allocation LP, whose 0/+-1 matrix is
totally unimodular, d stays 1.  Phase one depends only on the constraints,
so it is a value of its own: `phase_one` returns a `FeasibleStart` (or None
when the system is infeasible), and `minimize`/`maximize` run phase two
from the start they are given, never phase one.  Callers that optimise
several objectives over one system compute the start once and pass it to
every solve.  While the pivot entry equals the scale, the update touches
only the rows with a nonzero in the pivot column, and in them only the
nonzero entries of the pivot row, since the allocation rows are 0/+-1 and
sparse; there is no revised-simplex machinery.

A solve returns `LPSolution(value, basis)`: the optimum and the tableau
phase two ends on, itself a `FeasibleStart` over the same rows.  An optimal
basis of one objective is feasible for every other, so it is a valid
`start` for the next solve over the same constraints.  The witness point
is read off a basis on demand (`FeasibleStart.point`).  There is no status:
an infeasible system is `phase_one(...) is None`, and an unbounded
objective raises `ArithmeticError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import repeat
from math import lcm
from typing import ClassVar, Sequence


class Sense(Enum):
    EQ = "=="


@dataclass(frozen=True)
class LinearConstraint:
    """coeffs . x == rhs, with an optional provenance tag.  The coefficients
    are `int`s; the rhs is an `int` or a `Fraction`."""

    coeffs: tuple[int, ...]
    rhs: int | Fraction
    tag: str = ""
    # A class constant, not a field; bench/dsbench/trace.py::_tableau_cols reads it.
    sense: ClassVar[Sense] = Sense.EQ


@dataclass(frozen=True)
class FeasibleStart:
    """A feasible basis of one constraint system, as phase one leaves it.

    One integer tableau row per non-redundant constraint, over the
    `num_vars` variables and followed by the right-hand side; `basis[i]` is
    the variable basic in row i.  The rows are d*B^-1 [A | den*b], where
    A x = b is the caller's system with its integer matrix A, `den` is the
    least common denominator of the right-hand sides, B is the basic
    columns of A and d = |det B|.  So the basic columns form d*I, and the
    value of variable `basis[i]` is `Fraction(rows[i][-1], d * den)`.
    Phase one never stores an artificial column, so the rows are exactly
    `num_vars + 1` wide.  The basis a solve ends on has the same form over
    the same rows, so either one is a valid `start` for any objective over
    those constraints.
    """

    num_vars: int
    rows: tuple[tuple[int, ...], ...]
    basis: tuple[int, ...]
    den: int

    @property
    def point(self) -> tuple[Fraction, ...]:
        """The basic solution: x_B is the rhs over d*den, every other x is 0."""
        x = [Fraction(0)] * self.num_vars
        if self.rows:
            scale = self.rows[0][self.basis[0]] * self.den
            for row, b in zip(self.rows, self.basis):
                x[b] = Fraction(row[-1], scale)
        return tuple(x)


@dataclass(frozen=True)
class LPSolution:
    """An optimal value and the basis it is attained at.

    `basis` is the final tableau over the rows of the solve's start, so it
    is a valid `start` for another objective over the same constraints.
    """

    value: Fraction
    basis: FeasibleStart

    @property
    def point(self) -> tuple[Fraction, ...]:
        """An optimal point, read off `basis`."""
        return self.basis.point


def _pivot(rows: list[list[int]], basis: list[int], r: int, c: int, d: int) -> int:
    """Pivot in place on p = rows[r][c] > 0 of rows at the common scale d;
    returns p, the scale of every row after the pivot.

    Row i becomes (p*row_i - row_i[c]*row_r) // d.  That is p times the row
    a Fraction tableau would hold after the pivot, and p is |det| of the new
    basis, so by Cramer's rule every entry is an integer and the division is
    exact.  The rows hold the LP's own columns and the rhs, never an
    artificial column.  While p == d, rows with row_i[c] == 0 keep their
    values, and the others change only where the pivot row is nonzero.
    """
    pivot_row = rows[r]
    p = pivot_row[c]
    if p == d:
        nonzero = [(j, w) for j, w in enumerate(pivot_row) if w]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                for j, w in nonzero:
                    row[j] -= f * w // d
    else:
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * v - f * w) // d for v, w in zip(row, pivot_row)]
    basis[r] = c
    return p


def _run_simplex(
    rows: list[list[int]], basis: list[int], reduced: list[int], d: int
) -> tuple[list[int], int]:
    """Minimize over the tableau at scale d in place, Bland's rule
    throughout; returns the final reduced-cost row and scale, or raises
    ArithmeticError when the cost is unbounded below.

    `reduced` is d*(cost - cost_B B^-1 M), rhs included: one more row at
    scale d, which pivots with the others.  Only the tableau's own columns
    can enter; an artificial basic in some row has no column, so once it
    leaves it never returns.  Row i's ratio is rows[i][-1] /
    rows[i][entering], compared by cross-multiplying.
    """
    rows.append(reduced)
    while True:
        reduced = rows[-1]
        entering = next((j for j in range(len(reduced) - 1) if reduced[j] < 0), None)
        if entering is None:
            return rows.pop(), d
        # The reduced row's own entry in the entering column is negative, so
        # the ratio test never picks it.
        leaving = None
        for i, row in enumerate(rows):
            a = row[entering]
            if a > 0:
                if leaving is None:
                    leaving, best_rhs, best_a = i, row[-1], a
                    continue
                lhs = row[-1] * best_a
                rhs = best_rhs * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving, best_rhs, best_a = i, row[-1], a
        if leaving is None:
            raise ArithmeticError(f"unbounded: the cost falls without limit along x{entering}")
        d = _pivot(rows, basis, leaving, entering, d)


def phase_one(
    constraints: Sequence[LinearConstraint], num_vars: int
) -> FeasibleStart | None:
    """A feasible basis for the constraints and x >= 0, or None if none exists.

    It depends on the constraints only, so one start serves every objective
    minimized or maximized over the same system.
    """
    for con in constraints:
        if len(con.coeffs) != num_vars or not all(map(isinstance, con.coeffs, repeat(int))):
            raise ValueError(f"constraint is not {num_vars} ints: {con}")
        if not isinstance(con.rhs, (int, Fraction)):
            raise ValueError(f"constraint rhs is not an int or a Fraction: {con}")
    # Row i is constraint i's coefficients and den*rhs_i, negated with the
    # row if it is negative.  Its artificial num_vars + i is basic, so
    # B = I and d = 1; every artificial costs 1, so the reduced row is minus
    # the column sums.
    den = lcm(*[con.rhs.denominator for con in constraints])
    rows: list[list[int]] = []
    for con in constraints:
        row = [*con.coeffs, con.rhs.numerator * (den // con.rhs.denominator)]
        rows.append([-v for v in row] if row[-1] < 0 else row)
    basis = list(range(num_vars, num_vars + len(rows)))
    reduced = [-sum(col) for col in zip(*rows)] if rows else [0] * (num_vars + 1)
    reduced, d = _run_simplex(rows, basis, reduced, 1)
    if reduced[-1]:
        return None
    # Drive leftover artificials out of the basis; drop redundant rows.  A
    # basic artificial's column is the unit vector of its row, so dropping
    # the row and the artificial leaves |det B|, and d, as they were.
    for i in reversed(range(len(rows))):
        if basis[i] >= num_vars:
            pivot_col = next((j for j in range(num_vars) if rows[i][j] != 0), None)
            if pivot_col is None:
                del rows[i]
                del basis[i]
            else:
                # A negative pivot entry: the pivot makes -row the new row
                # at scale -rows[i][pivot_col], so it is negated first.
                if rows[i][pivot_col] < 0:
                    rows[i] = [-v for v in rows[i]]
                d = _pivot(rows, basis, i, pivot_col, d)

    return FeasibleStart(num_vars, tuple(map(tuple, rows)), tuple(basis), den)


def minimize(
    objective: Sequence[int],
    constraints: Sequence[LinearConstraint],
    num_vars: int,
    start: FeasibleStart,
) -> LPSolution:
    """Minimize objective . x subject to the constraints and x >= 0.

    `start` must be a feasible basis of the same constraints:
    `phase_one(constraints, num_vars)`, or the basis of an earlier solve.
    Raises ArithmeticError when the objective is unbounded.  The solve reads
    the rows of `start` only; `constraints` stays in the signature because
    bench/dsbench/trace.py binds it by name.
    """
    cost = list(objective)
    if len(cost) != num_vars or not all(map(isinstance, cost, repeat(int))):
        raise ValueError(f"objective is not {num_vars} ints")
    if start.num_vars != num_vars:
        raise ValueError("start was built for a different num_vars")

    rows = [list(row) for row in start.rows]
    basis = list(start.basis)
    d = rows[0][basis[0]] if rows else 1
    reduced = [d * v for v in cost] + [0]
    for row, b in zip(rows, basis):
        if cost[b]:
            reduced = [t - cost[b] * v for t, v in zip(reduced, row)]
    reduced, d = _run_simplex(rows, basis, reduced, d)
    # The reduced row's rhs is -d*den*cost.x.
    return LPSolution(
        Fraction(-reduced[-1], d * start.den),
        FeasibleStart(num_vars, tuple(map(tuple, rows)), tuple(basis), start.den),
    )


def maximize(
    objective: Sequence[int],
    constraints: Sequence[LinearConstraint],
    num_vars: int,
    start: FeasibleStart,
) -> LPSolution:
    """Maximize objective . x subject to the constraints and x >= 0; see
    `minimize`."""
    sol = minimize([-c for c in objective], constraints, num_vars, start)
    return LPSolution(-sol.value, sol.basis)
