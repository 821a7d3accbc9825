"""Inequality systems on the equality-only solver `dsaudit.lp`, in slack form.

`dsaudit.lp` solves one form: min c.x subject to A x = b and x >= 0.  These
helpers take the vertex oracle's rows (`lp_oracle.Row`, any sense) and put
the system in that form: one slack s >= 0 per inequality, after the
variables and in row order, with coefficient +1 for a "<=" row
(a.x + s = b) and -1 for a ">=" row (a.x - s = b).  Slacks cost nothing,
and the returned point drops them, so a solution reads over the original
variables.  `phase_one`, `minimize` and `maximize` mirror the signatures in
`dsaudit.lp`; a `start` must come from this module's `phase_one`.
"""

from dsaudit import lp


def _equality_form(rows, num_vars: int) -> tuple[list[lp.LinearConstraint], int]:
    """The rows as equalities over the variables and the slacks, and the
    number of columns that makes."""
    width = num_vars + sum(row.sense != "==" for row in rows)
    out = []
    slack = num_vars
    for row in rows:
        coeffs = list(row.coeffs) + [0] * (width - num_vars)
        if row.sense != "==":
            coeffs[slack] = 1 if row.sense == "<=" else -1
            slack += 1
        out.append(lp.LinearConstraint(tuple(coeffs), row.rhs))
    return out, width


def phase_one(rows, num_vars: int) -> lp.FeasibleStart | None:
    return lp.phase_one(*_equality_form(rows, num_vars))


def minimize(objective, rows, num_vars: int, start=None) -> lp.LPSolution:
    return _solve(lp.minimize, objective, rows, num_vars, start)


def maximize(objective, rows, num_vars: int, start=None) -> lp.LPSolution:
    return _solve(lp.maximize, objective, rows, num_vars, start)


def _solve(solver, objective, rows, num_vars, start):
    constraints, width = _equality_form(rows, num_vars)
    objective = list(objective) + [0] * (width - num_vars)
    sol = solver(objective, constraints, width, start)
    if sol.point is None:
        return sol
    return lp.LPSolution(sol.status, sol.value, sol.point[:num_vars])
