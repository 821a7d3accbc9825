"""Independent LP oracle: exhaustive vertex enumeration over exact rationals.

Deliberately shares no code with the simplex solver under test: it has its
own row type, `Row`, with a sense of "<=", ">=" or "==", and its own
feasibility check, `Row.holds_at`.  Every size-n subset of constraint
boundaries is solved as a linear system by Gaussian elimination; solutions
satisfying all constraints are polytope vertices, and optima are read off by
evaluating the objective at each vertex.  Only valid for bounded, pointed
polytopes, which probability simplices are.

`two_sided_system` states the polytope the library solves as an allocation
LP over one P(element) per element instead, so that the two formulations
can be compared.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from dsaudit.frames import enumerate_subsets
from dsaudit.measures import belief, plausibility

SENSES = ("<=", ">=", "==")


@dataclass(frozen=True)
class Row:
    """coeffs . x  (sense)  rhs, with sense one of `SENSES`."""

    coeffs: tuple[Fraction, ...]
    sense: str
    rhs: Fraction

    def __post_init__(self):
        if self.sense not in SENSES:
            raise ValueError(f"sense must be one of {SENSES}, not {self.sense!r}")

    def holds_at(self, point) -> bool:
        lhs = sum(c * x for c, x in zip(self.coeffs, point))
        if self.sense == "<=":
            return lhs <= self.rhs
        if self.sense == ">=":
            return lhs >= self.rhs
        return lhs == self.rhs


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


def enumerate_vertices(constraints: list[Row], num_vars: int) -> list[tuple[Fraction, ...]]:
    vertices: set[tuple[Fraction, ...]] = set()
    for combo in combinations(constraints, num_vars):
        rows = [list(c.coeffs) for c in combo]
        rhs = [c.rhs for c in combo]
        point = _solve_square(rows, rhs)
        if point is None:
            continue
        if all(c.holds_at(point) for c in constraints):
            vertices.add(tuple(point))
    return sorted(vertices)


def bounds_by_vertex_enumeration(
    constraints: list[Row],
    num_vars: int,
    objective: tuple[Fraction, ...],
):
    """(min, max) of the objective over the polytope; None if infeasible."""
    vertices = enumerate_vertices(constraints, num_vars)
    if not vertices:
        return None
    values = [sum(c * x for c, x in zip(objective, v)) for v in vertices]
    return min(values), max(values)


def element_bounds_by_vertex_enumeration(constraints: list[Row], num_vars: int):
    """(min, max) of each coordinate over the polytope, from one vertex
    enumeration; None if infeasible."""
    vertices = enumerate_vertices(constraints, num_vars)
    if not vertices:
        return None
    return [(min(v[i] for v in vertices), max(v[i] for v in vertices)) for i in range(num_vars)]


def two_sided_system(bodies) -> list[Row]:
    """Rows over one P(element) per element: non-negativity, total 1, and
    belief(S) <= P(S) <= plausibility(S) for every body and proper subset,
    skipping only bounds of 0 and 1."""
    frame = bodies[0].frame
    n = frame.size
    full = (1 << n) - 1

    def row(bits):
        return tuple(Fraction(bits >> i & 1) for i in range(n))

    rows = [Row(row(1 << i), ">=", Fraction(0)) for i in range(n)]
    rows.append(Row(row(full), "==", Fraction(1)))
    for body in bodies:
        for s in enumerate_subsets(frame):
            if 0 < s.bits < full:
                lo, hi = belief(body, s), plausibility(body, s)
                if lo > 0:
                    rows.append(Row(row(s.bits), ">=", lo))
                if hi < 1:
                    rows.append(Row(row(s.bits), "<=", hi))
    return rows
