"""The allocation-LP builder as it was before systems were stored as int
rows: one `LinearConstraint` per row, with a `Fraction` rhs and its tag,
built from the bodies' `(FocalSet, Fraction)` views.  Phase one runs on
those constraints put over the lcm of their rhs denominators by
`slack_form.int_rows`, as the LP did itself before it took int rows only.
Tests compare `build_constraints` with it.
"""

from fractions import Fraction

from dsaudit import lp
from slack_form import int_rows

_ZERO = Fraction(0)


def build_constraints(bodies, names=None):
    """(constraints, owners, fixed, start) of the bodies' allocation LP."""
    frame = bodies[0].frame
    if names is None:
        names = [f"body{i}" for i in range(len(bodies))]
    n = frame.size
    width = sum(bits.bit_count() for b in bodies for bits, _ in b.masses if bits & (bits - 1))
    fixed = [[_ZERO] * n for _ in bodies]
    owners = []
    rows = []
    for k, (body, name) in enumerate(zip(bodies, names)):
        for s, mass in body.focal:
            members = [w for w in range(n) if s.bits >> w & 1]
            if len(members) == 1:
                fixed[k][members[0]] = mass
                continue
            coeffs = [0] * width
            coeffs[len(owners) : len(owners) + len(members)] = [1] * len(members)
            rows.append(lp.LinearConstraint(tuple(coeffs), mass, f"{name}:split:{s}"))
            owners.extend([(k, w) for w in members])
    for k in range(1, len(bodies)):
        for w in range(n - 1):
            coeffs = [
                1 if owner == (k, w) else -1 if owner == (0, w) else 0
                for owner in owners
            ]
            rows.append(
                lp.LinearConstraint(
                    tuple(coeffs),
                    fixed[0][w] - fixed[k][w],
                    f"{names[k]}:marginal:{frame.elements[w]}",
                )
            )
    start = lp.phase_one(*int_rows(rows), len(owners))
    return tuple(rows), tuple(owners), tuple(fixed[0]), start
