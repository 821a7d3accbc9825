"""Exact linear programming over rationals.

A small two-phase primal simplex working entirely in `fractions.Fraction`.
Bland's rule is used for both the entering and leaving choices, which rules
out cycling, so the solver terminates on every input.  Degenerate and
redundant constraints are tolerated; redundant rows left over from phase one
are dropped.

Phase one depends only on the constraints, so it is a value of its own:
`phase_one` returns a `FeasibleStart` (or None when the system is
infeasible), and `minimize`/`maximize` run phase two from it.  Callers that
optimise several objectives over one system compute the start once and pass
it to every solve.  Pivots and reduced-cost updates touch only the nonzero
entries of the pivot row, since slack and artificial columns are mostly
zeros; there is no revised-simplex machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
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

    coeffs: tuple[Fraction, ...]
    sense: Sense
    rhs: Fraction
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


_FLIP = {Sense.LE: Sense.GE, Sense.GE: Sense.LE, Sense.EQ: Sense.EQ}


@dataclass(frozen=True)
class FeasibleStart:
    """A feasible basis of one constraint system, as phase one leaves it.

    One tableau row per non-redundant constraint, over the variables and the
    slacks (`num_cols` columns) followed by the right-hand side; `basis[i]`
    is the column basic in row i.  No artificial column is left.
    """

    num_vars: int
    num_cols: int
    rows: tuple[tuple[Fraction, ...], ...]
    basis: tuple[int, ...]


def _pivot(
    rows: list[list[Fraction]], basis: list[int], r: int, c: int
) -> list[tuple[int, Fraction]]:
    """Pivot in place on rows[r][c]; returns the new pivot row's nonzeros."""
    piv = rows[r][c]
    if piv != 1:
        rows[r] = [v / piv if v else v for v in rows[r]]
    nonzero = [(j, v) for j, v in enumerate(rows[r]) if v]
    for i, row in enumerate(rows):
        factor = row[c]
        if i != r and factor:
            for j, v in nonzero:
                row[j] -= factor * v
    basis[r] = c
    return nonzero


def _reduced_costs(
    rows: list[list[Fraction]], basis: list[int], cost: list[Fraction]
) -> list[Fraction]:
    """Row of reduced costs c_j - c_B . B^-1 A_j for the current basis."""
    reduced = list(cost) + [Fraction(0)]
    for row, b in zip(rows, basis):
        cb = cost[b]
        if cb:
            for j, v in enumerate(row):
                if v:
                    reduced[j] -= cb * v
    return reduced


def _run_simplex(
    rows: list[list[Fraction]], basis: list[int], cost: list[Fraction]
) -> LPStatus:
    """Minimize cost over the tableau in place. Bland's rule throughout."""
    reduced = _reduced_costs(rows, basis, cost)
    while True:
        entering = next((j for j in range(len(cost)) if reduced[j] < 0), None)
        if entering is None:
            return LPStatus.OPTIMAL
        leaving = None
        best_ratio: Fraction | None = None
        for i, row in enumerate(rows):
            if row[entering] > 0:
                ratio = row[-1] / row[entering]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving is None:
            return LPStatus.UNBOUNDED
        factor = reduced[entering]
        for j, v in _pivot(rows, basis, leaving, entering):
            reduced[j] -= factor * v


def phase_one(
    constraints: Sequence[LinearConstraint], num_vars: int
) -> FeasibleStart | None:
    """A feasible basis for the constraints and x >= 0, or None if none exists.

    It depends on the constraints only, so one start serves every objective
    minimized or maximized over the same system.
    """
    normalized: list[tuple[list[Fraction], Sense, Fraction]] = []
    for con in constraints:
        if len(con.coeffs) != num_vars:
            raise ValueError(f"constraint width mismatch: {con}")
        coeffs = [Fraction(c) for c in con.coeffs]
        rhs = Fraction(con.rhs)
        sense = con.sense
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            sense = _FLIP[sense]
        normalized.append((coeffs, sense, rhs))

    n_slack = sum(1 for _, s, _ in normalized if s is not Sense.EQ)
    n_art = sum(1 for _, s, _ in normalized if s is not Sense.LE)
    art_start = num_vars + n_slack
    n_cols = art_start + n_art

    rows: list[list[Fraction]] = []
    basis: list[int] = []
    slack_col = num_vars
    art_col = art_start
    for coeffs, sense, rhs in normalized:
        row = [Fraction(0)] * (n_cols + 1)
        row[:num_vars] = coeffs
        row[-1] = rhs
        if sense is Sense.LE:
            row[slack_col] = Fraction(1)
            basis.append(slack_col)
            slack_col += 1
        elif sense is Sense.GE:
            row[slack_col] = Fraction(-1)
            slack_col += 1
            row[art_col] = Fraction(1)
            basis.append(art_col)
            art_col += 1
        else:
            row[art_col] = Fraction(1)
            basis.append(art_col)
            art_col += 1
        rows.append(row)

    if n_art:
        cost1 = [Fraction(0)] * art_start + [Fraction(1)] * n_art
        if _run_simplex(rows, basis, cost1) is not LPStatus.OPTIMAL:
            raise AssertionError("phase one cannot be unbounded")
        if any(rows[i][-1] for i, b in enumerate(basis) if b >= art_start):
            return None
        # Drive leftover artificials out of the basis; drop redundant rows.
        for i in reversed(range(len(rows))):
            if basis[i] >= art_start:
                pivot_col = next(
                    (j for j in range(art_start) if rows[i][j] != 0), None
                )
                if pivot_col is None:
                    del rows[i]
                    del basis[i]
                else:
                    _pivot(rows, basis, i, pivot_col)

    return FeasibleStart(
        num_vars,
        art_start,
        tuple((*row[:art_start], row[-1]) for row in rows),
        tuple(basis),
    )


def minimize(
    objective: Sequence[Fraction],
    constraints: Sequence[LinearConstraint],
    num_vars: int,
    start: FeasibleStart | None = None,
) -> LPSolution:
    """Minimize objective . x subject to the constraints and x >= 0.

    `start`, when given, must be `phase_one(constraints, num_vars)`: passing
    it skips phase one, which is the same for every objective.
    """
    obj = [Fraction(c) for c in objective]
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
    cost = obj + [Fraction(0)] * (start.num_cols - num_vars)
    if _run_simplex(rows, basis, cost) is LPStatus.UNBOUNDED:
        return LPSolution(LPStatus.UNBOUNDED, None, None)

    point = [Fraction(0)] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            point[b] = rows[i][-1]
    value = sum(c * x for c, x in zip(obj, point))
    return LPSolution(LPStatus.OPTIMAL, value, tuple(point))


def maximize(
    objective: Sequence[Fraction],
    constraints: Sequence[LinearConstraint],
    num_vars: int,
    start: FeasibleStart | None = None,
) -> LPSolution:
    """Maximize objective . x subject to the constraints and x >= 0."""
    sol = minimize([-Fraction(c) for c in objective], constraints, num_vars, start)
    if sol.status is not LPStatus.OPTIMAL:
        return sol
    assert sol.value is not None
    return LPSolution(LPStatus.OPTIMAL, -sol.value, sol.point)
