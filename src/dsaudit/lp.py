"""Exact linear programming over rationals.

One problem form: minimize c.x subject to A x = b and x >= 0, every row an
equality.  One input contract: int rows [A | D*b] in, each row the integer
coefficients and its rhs times a common denominator D of b, and an int
cost c; exact `Fraction` values out.  A small two-phase primal simplex
whose tableau holds Python `int`s.  This is fraction-free
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
basis is never needed again (Chvatal 1983, ch. 8).  Phase one depends only
on the rows, so it is a value of its own: `phase_one(rows, den, num_vars)`
returns a `FeasibleStart` (or None when the system is infeasible), and
`minimize`/`maximize` run phase two from the start they are given, never
phase one.  The rows are the caller's own, unchecked and unscaled; phase
one only divides D and the rhs by their gcd, to reach the least common
denominator.  So for the two-body allocation LP, whose 0/+-1 matrix is
totally unimodular, d stays 1, and a pivot then divides nothing.  Callers
that optimise several objectives over one system compute the start once
and pass it to every solve.  While the pivot entry equals the scale, the
update touches only the rows with a nonzero in the pivot column, and in
them only the nonzero entries of the pivot row, since the allocation rows
are 0/+-1 and sparse; there is no revised-simplex machinery.

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
from math import gcd
from typing import ClassVar, Sequence


class Sense(Enum):
    EQ = "=="


@dataclass(frozen=True)
class LinearConstraint:
    """coeffs . x == rhs, with an optional provenance tag: one row of a
    system as a record, for reading.  The coefficients are `int`s; the rhs
    is an `int` or a `Fraction`.  The solver itself takes int rows."""

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
    values, and the others change only where the pivot row is nonzero,
    with no division while d == 1.
    """
    pivot_row = rows[r]
    p = pivot_row[c]
    if p == d:
        nonzero = [(j, w) for j, w in enumerate(pivot_row) if w]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                if d == 1:
                    for j, w in nonzero:
                        row[j] -= f * w
                else:
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
    rows: Sequence[Sequence[int]], den: int, num_vars: int
) -> FeasibleStart | None:
    """A feasible basis for A x = b and x >= 0, or None if none exists.

    Each row is [A_i | den*b_i]: `num_vars` int coefficients, then the rhs
    times `den`, a common denominator of b.  The rows are neither checked
    nor changed.  The start's `den` is den // gcd(den, *rhs), the least
    common denominator of b.  It depends on the rows only, so one start
    serves every objective minimized or maximized over the same system.
    """
    # Row i is rows[i] with its rhs over the least common denominator
    # den // g, negated if that is negative.  Its artificial num_vars + i is basic, so B = I and
    # d = 1; every artificial costs 1, so the reduced row is minus the
    # column sums.
    g = gcd(den, *[row[-1] for row in rows])
    tableau = [[*row[:-1], row[-1] // g] for row in rows]
    tableau = [[-v for v in row] if row[-1] < 0 else row for row in tableau]
    basis = list(range(num_vars, num_vars + len(tableau)))
    reduced = [-sum(col) for col in zip(*tableau)] if tableau else [0] * (num_vars + 1)
    reduced, d = _run_simplex(tableau, basis, reduced, 1)
    if reduced[-1]:
        return None
    # Drive leftover artificials out of the basis; drop redundant rows.  A
    # basic artificial's column is the unit vector of its row, so dropping
    # the row and the artificial leaves |det B|, and d, as they were.
    for i in reversed(range(len(tableau))):
        if basis[i] >= num_vars:
            pivot_col = next((j for j in range(num_vars) if tableau[i][j] != 0), None)
            if pivot_col is None:
                del tableau[i]
                del basis[i]
            else:
                # A negative pivot entry: the pivot makes -row the new row
                # at scale -tableau[i][pivot_col], so it is negated first.
                if tableau[i][pivot_col] < 0:
                    tableau[i] = [-v for v in tableau[i]]
                d = _pivot(tableau, basis, i, pivot_col, d)

    return FeasibleStart(num_vars, tuple(map(tuple, tableau)), tuple(basis), den // g)


def minimize(
    objective: Sequence[int],
    constraints: Sequence[LinearConstraint],
    num_vars: int,
    start: FeasibleStart,
) -> LPSolution:
    """Minimize objective . x subject to the constraints and x >= 0.

    `start` must be a feasible basis of the same system: `phase_one` of
    its rows, or the basis of an earlier solve.  Raises ArithmeticError
    when the objective is unbounded, and ValueError when it is not
    `num_vars` entries of type `int` (so a `bool` is refused).  The solve
    reads the rows of `start` only; `constraints` stays in the signature
    because bench/dsbench/trace.py binds it by name.
    """
    cost = list(objective)
    if len(cost) != num_vars or set(map(type, cost)) - {int}:
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
    # Negation would turn a bool into an int that minimize accepts.
    if set(map(type, objective)) - {int}:
        raise ValueError(f"objective is not {num_vars} ints")
    sol = minimize([-c for c in objective], constraints, num_vars, start)
    return LPSolution(-sol.value, sol.basis)
