"""Independent LP oracle: exhaustive vertex enumeration over exact rationals.

Deliberately shares no code with the simplex solver under test.  Every
size-n subset of constraint boundaries is solved as a linear system by
Gaussian elimination; solutions satisfying all constraints are polytope
vertices, and optima are read off by evaluating the objective at each vertex.
Only valid for bounded, pointed polytopes, which probability simplices are.

`two_sided_system` states the polytope the library solves as an allocation
LP over one P(element) per element instead, so that the two formulations
can be compared.
"""

from fractions import Fraction
from itertools import combinations

from dsaudit.frames import enumerate_subsets
from dsaudit.lp import LinearConstraint, Sense
from dsaudit.measures import belief, plausibility


def _solve_square(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Solve an n x n rational system; None if singular."""
    n = len(rows)
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        factor = aug[col][col]
        aug[col] = [v / factor for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                scale = aug[r][col]
                aug[r] = [v - scale * p for v, p in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def enumerate_vertices(
    constraints: list[LinearConstraint], num_vars: int
) -> list[tuple[Fraction, ...]]:
    vertices: set[tuple[Fraction, ...]] = set()
    for combo in combinations(constraints, num_vars):
        rows = [list(c.coeffs) for c in combo]
        rhs = [c.rhs for c in combo]
        point = _solve_square(rows, rhs)
        if point is None:
            continue
        if all(c.satisfied_by(point) for c in constraints):
            vertices.add(tuple(point))
    return sorted(vertices)


def bounds_by_vertex_enumeration(
    constraints: list[LinearConstraint],
    num_vars: int,
    objective: tuple[Fraction, ...],
):
    """(min, max) of the objective over the polytope; None if infeasible."""
    vertices = enumerate_vertices(constraints, num_vars)
    if not vertices:
        return None
    values = [sum(c * x for c, x in zip(objective, v)) for v in vertices]
    return min(values), max(values)


def element_bounds_by_vertex_enumeration(
    constraints: list[LinearConstraint], num_vars: int
):
    """(min, max) of each coordinate over the polytope, from one vertex
    enumeration; None if infeasible."""
    vertices = enumerate_vertices(constraints, num_vars)
    if not vertices:
        return None
    return [(min(v[i] for v in vertices), max(v[i] for v in vertices)) for i in range(num_vars)]


def two_sided_system(bodies) -> list[LinearConstraint]:
    """Rows over one P(element) per element: non-negativity, total 1, and
    belief(S) <= P(S) <= plausibility(S) for every body and proper subset,
    skipping only bounds of 0 and 1."""
    frame = bodies[0].frame
    n = frame.size
    full = (1 << n) - 1

    def row(bits):
        return tuple(Fraction(bits >> i & 1) for i in range(n))

    rows = [LinearConstraint(row(1 << i), Sense.GE, Fraction(0)) for i in range(n)]
    rows.append(LinearConstraint(row(full), Sense.EQ, Fraction(1)))
    for body in bodies:
        for s in enumerate_subsets(frame):
            if 0 < s.bits < full:
                lo, hi = belief(body, s), plausibility(body, s)
                if lo > 0:
                    rows.append(LinearConstraint(row(s.bits), Sense.GE, lo))
                if hi < 1:
                    rows.append(LinearConstraint(row(s.bits), Sense.LE, hi))
    return rows
