"""Inequality systems on the equality-only solver `dsaudit.lp`, in slack form.

`dsaudit.lp` solves one form: min c.x subject to A x = b and x >= 0, with A
and c integer.  These helpers take the vertex oracle's rows (`lp_oracle.Row`,
any sense, rational coefficients) and put the system in that form: each row,
rhs included, is multiplied by the lcm of its coefficients' denominators,
and one slack s >= 0 per inequality follows the variables in row order, with
coefficient +lcm for a "<=" row (a.x + s = b) and -lcm for a ">=" row
(a.x - s = b).  The objective is multiplied by the lcm of its own
denominators, and the value is divided back.  Slacks cost nothing, and a
`Solution`'s point drops them, so it reads over the original variables.
`int_rows` puts integer equalities in the form `dsaudit.lp.phase_one`
takes: the rows [A | den*b] with den the lcm of the rhs denominators.
`phase_one`, `minimize` and `maximize` take the vertex oracle's rows and a
variable count; a `start` must come from this module's `phase_one`, or be
the `basis` of one of this module's solutions over the same rows.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from dsaudit import lp


@dataclass(frozen=True)
class Solution:
    """An optimum over the original variables; `basis` is the `dsaudit.lp`
    basis over the slack form, a valid `start` for the same rows."""

    value: Fraction
    point: tuple[Fraction, ...]
    basis: lp.FeasibleStart


def _integer_scale(values) -> tuple[list[int], int]:
    """The values times the lcm of their denominators, and that lcm."""
    scale = lcm(*[Fraction(v).denominator for v in values])
    return [int(v * scale) for v in values], scale


def _equality_form(rows, num_vars: int) -> tuple[list[lp.LinearConstraint], int]:
    """The rows as integer equalities over the variables and the slacks, and
    the number of columns that makes."""
    width = num_vars + sum(row.sense != "==" for row in rows)
    out = []
    slack = num_vars
    for row in rows:
        coeffs, scale = _integer_scale(row.coeffs)
        coeffs += [0] * (width - num_vars)
        if row.sense != "==":
            coeffs[slack] = scale if row.sense == "<=" else -scale
            slack += 1
        out.append(lp.LinearConstraint(tuple(coeffs), scale * row.rhs))
    return out, width


def int_rows(constraints) -> tuple[list[tuple[int, ...]], int]:
    """The integer equalities as rows [A | den*b] and their den, the lcm of
    the rhs denominators."""
    den = lcm(*[Fraction(con.rhs).denominator for con in constraints])
    return [(*con.coeffs, int(con.rhs * den)) for con in constraints], den


def phase_one(rows, num_vars: int) -> lp.FeasibleStart | None:
    constraints, width = _equality_form(rows, num_vars)
    return lp.phase_one(*int_rows(constraints), width)


def minimize(objective, rows, num_vars: int, start: lp.FeasibleStart) -> Solution:
    return _solve(lp.minimize, objective, rows, num_vars, start)


def maximize(objective, rows, num_vars: int, start: lp.FeasibleStart) -> Solution:
    return _solve(lp.maximize, objective, rows, num_vars, start)


def _solve(solver, objective, rows, num_vars, start) -> Solution:
    constraints, width = _equality_form(rows, num_vars)
    cost, scale = _integer_scale(objective)
    sol = solver(cost + [0] * (width - num_vars), constraints, width, start)
    return Solution(sol.value / scale, sol.point[:num_vars], sol.basis)
