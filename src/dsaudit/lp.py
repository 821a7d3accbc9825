"""Exact linear programming over rationals.

A small two-phase primal simplex with exact inputs, each an `int` or a
`fractions.Fraction`, and exact `Fraction` results, whose tableau holds
Python `int`s.  Every row is kept as a positive integer multiple of the row
a `Fraction` tableau would hold.  This is fraction-free pivoting (Edmonds
1967; Bareiss 1968) with gcd normalisation in place of exact division: a
pivot replaces each row by p*row - row[c]*pivot_row, and the ratio test
cross-multiplies.  Positive scales change no sign and no ratio, so every
pivot is the one the `Fraction` tableau would make, without its per-entry
gcd and object construction.
Bland's rule is used for both the entering and leaving choices, which rules
out cycling, so the solver terminates on every input.  Degenerate and
redundant constraints are tolerated; redundant rows left over from phase one
are dropped.

Phase one gives every constraint one row form, whatever its sense: an
equality, with a slack column if it is an inequality, and its own
artificial column, which starts in the basis.  It depends only on the
constraints, so it is a value of its own: `phase_one` returns a
`FeasibleStart` (or None when the system is infeasible), and
`minimize`/`maximize` run phase two from it.  Callers that optimise several
objectives over one system compute the start once and pass it to every
solve.  When the pivot entry divides a row's entry in the pivot
column, the update touches only the nonzero entries of the pivot row, since
slack and artificial columns are mostly zeros; there is no revised-simplex
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


class Sense(Enum):
    LE = "<="
    GE = ">="
    EQ = "=="


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearConstraint:
    """coeffs . x  (sense)  rhs, with an optional provenance tag."""

    coeffs: tuple[int | Fraction, ...]
    sense: Sense
    rhs: int | Fraction
    tag: str = ""

    def satisfied_by(self, point: Sequence[Fraction]) -> bool:
        lhs = sum(c * x for c, x in zip(self.coeffs, point))
        if self.sense is Sense.LE:
            return lhs <= self.rhs
        if self.sense is Sense.GE:
            return lhs >= self.rhs
        return lhs == self.rhs


@dataclass(frozen=True)
class LPSolution:
    status: LPStatus
    value: Fraction | None
    point: tuple[Fraction, ...] | None


@dataclass(frozen=True)
class FeasibleStart:
    """A feasible basis of one constraint system, as phase one leaves it.

    One integer tableau row per non-redundant constraint, over the variables
    and one slack per inequality, in constraint order (`num_cols` columns),
    followed by the right-hand side; `basis[i]` is the column basic in row
    i.  Each row is a primitive `int` vector, a positive multiple of the row
    a `Fraction` tableau would hold, so its basic coefficient is positive but
    not always 1: the value of column `basis[i]` is
    `Fraction(rows[i][-1], rows[i][basis[i]])`.  No artificial column is
    left.
    """

    num_vars: int
    num_cols: int
    rows: tuple[tuple[int, ...], ...]
    basis: tuple[int, ...]


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries.

    The gcd is folded one entry at a time and stops as soon as it is 1, so
    no argument tuple as wide as the row is built.
    """
    g = 0
    for v in row:
        if v:
            g = gcd(g, v)
            if g == 1:
                return row
    return [v // g for v in row] if g > 1 else row


def _eliminate(
    row: list[int], pivot_row: list[int], nonzero: list[tuple[int, int]], c: int
) -> list[int]:
    """A positive multiple of p*row - row[c]*pivot_row, p = pivot_row[c] > 0.

    The result has a zero in column c, like the row Fraction elimination
    would leave.  `nonzero` lists the pivot row's nonzero entries.  p and
    row[c] are divided by their gcd first.  When p then is 1, the row keeps
    its scale and only those entries change; otherwise the row's scale grows
    by the factor p, so the result is divided by the gcd of its entries.
    """
    g = gcd(pivot_row[c], row[c])
    p = pivot_row[c] // g
    f = row[c] // g
    if p == 1:
        row = row[:]
        for j, w in nonzero:
            row[j] -= f * w
        return row
    return _primitive([p * v - f * w for v, w in zip(row, pivot_row)])


def _pivot(
    rows: list[list[int]], basis: list[int], r: int, c: int
) -> list[tuple[int, int]]:
    """Pivot in place on rows[r][c], which must be positive; returns the
    pivot row's nonzero entries."""
    pivot_row = rows[r]
    nonzero = [(j, w) for j, w in enumerate(pivot_row) if w]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            rows[i] = _eliminate(row, pivot_row, nonzero, c)
    basis[r] = c
    return nonzero


def _reduced_costs(
    rows: list[list[int]], basis: list[int], cost: list[int]
) -> list[int]:
    """A positive multiple of the row c_j - c_B . B^-1 A_j, rhs included."""
    priced = [i for i, b in enumerate(basis) if cost[b]]
    scale = lcm(*[rows[i][basis[i]] for i in priced])
    reduced = [scale * v for v in cost] + [0]
    for i in priced:
        row = rows[i]
        f = cost[basis[i]] * (scale // row[basis[i]])
        reduced = [t - f * v for t, v in zip(reduced, row)]
    return _primitive(reduced)


def _run_simplex(
    rows: list[list[int]], basis: list[int], cost: list[int]
) -> LPStatus:
    """Minimize cost over the tableau in place. Bland's rule throughout.

    Row i's ratio is rows[i][-1] / rows[i][entering] whatever the row's
    scale, so ratios are compared by cross-multiplying.
    """
    reduced = _reduced_costs(rows, basis, cost)
    while True:
        entering = next((j for j in range(len(cost)) if reduced[j] < 0), None)
        if entering is None:
            return LPStatus.OPTIMAL
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
            return LPStatus.UNBOUNDED
        nonzero = _pivot(rows, basis, leaving, entering)
        reduced = _eliminate(reduced, rows[leaving], nonzero, entering)


def phase_one(
    constraints: Sequence[LinearConstraint], num_vars: int
) -> FeasibleStart | None:
    """A feasible basis for the constraints and x >= 0, or None if none exists.

    It depends on the constraints only, so one start serves every objective
    minimized or maximized over the same system.
    """
    # Row i is constraint i times the lcm of its denominators, with a slack
    # of +scale for <= or -scale for >=, negated if its rhs is negative, and
    # then artificial column art_start + i of +scale, basic at the start.  So
    # the row is a positive multiple of the Fraction row with unit slack and
    # artificial, and its rhs is >= 0.
    art_start = num_vars + sum(con.sense is not Sense.EQ for con in constraints)
    n_cols = art_start + len(constraints)
    rows: list[list[int]] = []
    slack_col = num_vars
    for i, con in enumerate(constraints):
        if len(con.coeffs) != num_vars:
            raise ValueError(f"constraint width mismatch: {con}")
        values = [*con.coeffs, con.rhs]
        scale = lcm(*[v.denominator for v in values])
        ints = [v.numerator * (scale // v.denominator) for v in values]
        row = ints[:-1] + [0] * (n_cols - num_vars) + ints[-1:]
        if con.sense is not Sense.EQ:
            row[slack_col] = scale if con.sense is Sense.LE else -scale
            slack_col += 1
        if row[-1] < 0:
            row = [-v for v in row]
        row[art_start + i] = scale
        rows.append(row)
    basis = list(range(art_start, n_cols))

    cost1 = [0] * art_start + [1] * len(rows)
    if _run_simplex(rows, basis, cost1) is not LPStatus.OPTIMAL:
        raise AssertionError("phase one cannot be unbounded")
    if any(rows[i][-1] for i, b in enumerate(basis) if b >= art_start):
        return None
    # Drive leftover artificials out of the basis; drop redundant rows.
    for i in reversed(range(len(rows))):
        if basis[i] >= art_start:
            pivot_col = next((j for j in range(art_start) if rows[i][j] != 0), None)
            if pivot_col is None:
                del rows[i]
                del basis[i]
            else:
                # A negative pivot entry: -row is the positive multiple
                # of the Fraction row divided by it.
                if rows[i][pivot_col] < 0:
                    rows[i] = [-v for v in rows[i]]
                _pivot(rows, basis, i, pivot_col)

    return FeasibleStart(
        num_vars,
        art_start,
        tuple(tuple(_primitive([*row[:art_start], row[-1]])) for row in rows),
        tuple(basis),
    )


def minimize(
    objective: Sequence[int | Fraction],
    constraints: Sequence[LinearConstraint],
    num_vars: int,
    start: FeasibleStart | None = None,
) -> LPSolution:
    """Minimize objective . x subject to the constraints and x >= 0.

    `start`, when given, must be `phase_one(constraints, num_vars)`: passing
    it skips phase one, which is the same for every objective.
    """
    obj = list(objective)
    if len(obj) != num_vars:
        raise ValueError("objective length does not match num_vars")
    if start is None:
        start = phase_one(constraints, num_vars)
        if start is None:
            return LPSolution(LPStatus.INFEASIBLE, None, None)
    elif start.num_vars != num_vars:
        raise ValueError("start was built for a different num_vars")

    rows = [list(row) for row in start.rows]
    basis = list(start.basis)
    # A positive multiple of the objective has the same minimizers.
    scale = lcm(*[c.denominator for c in obj])
    cost = [c.numerator * (scale // c.denominator) for c in obj]
    cost += [0] * (start.num_cols - num_vars)
    if _run_simplex(rows, basis, cost) is LPStatus.UNBOUNDED:
        return LPSolution(LPStatus.UNBOUNDED, None, None)

    # The value is cost . x / scale, and only basic variables of nonzero
    # cost add to it: it is summed as num / den in ints, with one Fraction.
    point = [Fraction(0)] * num_vars
    num, den = 0, 1
    for row, b in zip(rows, basis):
        if b < num_vars:
            point[b] = Fraction(row[-1], row[b])
            if cost[b]:
                num = num * row[b] + cost[b] * row[-1] * den
                den *= row[b]
    return LPSolution(LPStatus.OPTIMAL, Fraction(num, den * scale), tuple(point))


def maximize(
    objective: Sequence[int | Fraction],
    constraints: Sequence[LinearConstraint],
    num_vars: int,
    start: FeasibleStart | None = None,
) -> LPSolution:
    """Maximize objective . x subject to the constraints and x >= 0."""
    sol = minimize([-c for c in objective], constraints, num_vars, start)
    if sol.status is not LPStatus.OPTIMAL:
        return sol
    assert sol.value is not None
    return LPSolution(LPStatus.OPTIMAL, -sol.value, sol.point)
