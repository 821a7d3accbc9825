"""Exact simplex solver: known optima, infeasibility, degeneracy, oracle."""

from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dsaudit.lp import (
    LinearConstraint,
    LPStatus,
    Sense,
    maximize,
    minimize,
    phase_one,
)
from lp_oracle import bounds_by_vertex_enumeration

F = Fraction


def c(coeffs, sense, rhs):
    return LinearConstraint(tuple(F(x) for x in coeffs), sense, F(rhs))


def test_textbook_maximum():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6
    cons = [c([1, 1], Sense.LE, 4), c([1, 3], Sense.LE, 6)]
    sol = maximize([F(3), F(2)], cons, 2)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.value == 12
    assert sol.point == (F(4), F(0))


def test_minimum_with_lower_bounds():
    # min 2x + 3y s.t. x + y >= 2
    cons = [c([1, 1], Sense.GE, 2)]
    sol = minimize([F(2), F(3)], cons, 2)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.value == 4
    assert sol.point == (F(2), F(0))


def test_equality_constraint_forces_point():
    cons = [c([1, 1], Sense.EQ, 1), c([1, 0], Sense.EQ, "1/3")]
    lo = minimize([F(0), F(1)], cons, 2)
    hi = maximize([F(0), F(1)], cons, 2)
    assert lo.value == hi.value == F(2, 3)


def test_infeasible_system():
    cons = [c([1, 1], Sense.EQ, 1), c([1, 0], Sense.GE, 2)]
    assert minimize([F(1), F(0)], cons, 2).status is LPStatus.INFEASIBLE
    assert phase_one(cons, 2) is None


def test_start_must_match_num_vars():
    cons = [c([1, 1], Sense.EQ, 1)]
    with pytest.raises(ValueError):
        minimize([F(1)], [c([1], Sense.EQ, 1)], 1, phase_one(cons, 2))


def _warm_equals_cold(solver, obj, cons, n, start):
    warm = solver(obj, cons, n, start)
    assert warm == solver(obj, cons, n)
    return warm


def test_unbounded_problem():
    sol = maximize([F(1), F(0)], [c([0, 1], Sense.LE, 1)], 2)
    assert sol.status is LPStatus.UNBOUNDED


def test_negative_rhs_is_normalized():
    # -x <= -2 is x >= 2
    cons = [c([-1], Sense.LE, -2), c([1], Sense.LE, 5)]
    sol = minimize([F(1)], cons, 1)
    assert sol.value == 2


def test_redundant_and_duplicate_constraints_tolerated():
    cons = [
        c([1, 1], Sense.EQ, 1),
        c([1, 1], Sense.EQ, 1),
        c([1, 1], Sense.LE, 1),
        c([1, 0], Sense.LE, 1),
        c([1, 0], Sense.GE, 0),
    ]
    sol = maximize([F(1), F(0)], cons, 2)
    assert sol.value == 1
    start = phase_one(cons, 2)
    # the duplicate equality is redundant and dropped from the start
    assert len(start.rows) < len(cons)
    for solver, obj, want in (
        (maximize, [F(1), F(0)], 1),
        (minimize, [F(1), F(0)], 0),
        (maximize, [F(0), F(1)], 1),
    ):
        assert _warm_equals_cold(solver, obj, cons, 2, start).value == want


def test_degenerate_vertex():
    # three boundaries through one point; Bland's rule must not cycle
    cons = [
        c([1, 1], Sense.LE, 1),
        c([1, 0], Sense.LE, 1),
        c([2, 1], Sense.LE, 2),
    ]
    sol = maximize([F(1), F(1)], cons, 2)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.value == 1
    start = phase_one(cons, 2)
    for solver, obj, want in (
        (maximize, [F(1), F(1)], 1),
        (maximize, [F(2), F(1)], 2),
        (minimize, [F(-1), F(0)], -1),
    ):
        assert _warm_equals_cold(solver, obj, cons, 2, start).value == want


def test_exact_fractions_survive():
    cons = [c([1, 1, 1], Sense.EQ, 1), c(["1/7", 0, 0], Sense.GE, "1/49")]
    sol = minimize([F(1), F(0), F(0)], cons, 3)
    assert sol.value == F(1, 7)


def test_solution_point_satisfies_all_constraints():
    cons = [
        c([1, 1, 1], Sense.EQ, 1),
        c([1, 0, 0], Sense.GE, "1/4"),
        c([1, 1, 0], Sense.LE, "1/2"),
    ]
    for solver, obj in ((minimize, [F(0), F(1), F(0)]), (maximize, [F(0), F(1), F(0)])):
        sol = solver(obj, cons, 3)
        assert sol.status is LPStatus.OPTIMAL
        assert sol.point is not None
        assert all(con.satisfied_by(sol.point) for con in cons)
        assert sum(o * x for o, x in zip(obj, sol.point)) == sol.value


def test_agrees_with_vertex_oracle_on_fixed_cases():
    systems = [
        [c([1, 1], Sense.EQ, 1)],
        [c([1, 1], Sense.EQ, 1), c([1, 0], Sense.LE, "2/3")],
        [
            c([1, 1, 1], Sense.EQ, 1),
            c([1, 0, 0], Sense.GE, "1/4"),
            c([0, 1, 1], Sense.LE, "3/4"),
            c([1, 1, 0], Sense.EQ, "1/2"),
        ],
    ]
    for cons in systems:
        n = len(cons[0].coeffs)
        nonneg = [
            c([1 if j == i else 0 for j in range(n)], Sense.GE, 0) for i in range(n)
        ]
        full = cons + nonneg
        start = phase_one(full, n)
        for i in range(n):
            obj = tuple(F(1) if j == i else F(0) for j in range(n))
            oracle = bounds_by_vertex_enumeration(full, n, obj)
            assert oracle is not None
            lo = _warm_equals_cold(minimize, obj, full, n, start)
            hi = _warm_equals_cold(maximize, obj, full, n, start)
            assert (lo.value, hi.value) == oracle


# Denominators include the unrelated primes 97 and 101, so that integer rows
# scaled by their lcm carry large, coprime entries.
_DENOMINATORS = st.sampled_from((1, 2, 3, 7, 97, 101))
_rationals = st.builds(Fraction, st.integers(-9, 9), _DENOMINATORS)
_positive = st.builds(Fraction, st.integers(1, 9), _DENOMINATORS)


def _unit(n, i):
    return tuple(F(int(j == i)) for j in range(n))


@st.composite
def _systems(draw):
    """(constraints, n): random rows of every sense, some duplicated, plus a
    box 0 <= x_i <= u_i written either way round, so the polytope is bounded
    and the vertex oracle applies.  Some rows pass through one point x0 of
    the box, which makes degenerate vertices; rows with a random rhs make
    many systems infeasible."""
    n = draw(st.integers(1, 3))
    x0 = [draw(st.just(F(0)) | _positive) for _ in range(n)]
    cons = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = draw(st.tuples(*[_rationals] * n))
        through_x0 = sum(a * x for a, x in zip(coeffs, x0))
        rhs = draw(st.just(through_x0) | _rationals)
        cons.append(LinearConstraint(coeffs, draw(st.sampled_from(Sense)), rhs))
    cons += draw(st.lists(st.sampled_from(cons), max_size=2))
    for i in range(n):
        u = x0[i] + draw(_positive)
        if draw(st.booleans()):
            cons.append(LinearConstraint(_unit(n, i), Sense.LE, u))
        else:
            cons.append(LinearConstraint(tuple(-v for v in _unit(n, i)), Sense.GE, -u))
    return draw(st.permutations(cons)), n


@settings(max_examples=300, deadline=None)
@given(_systems(), st.data())
def test_simplex_matches_vertex_oracle_on_random_systems(system, data):
    cons, n = system
    obj = data.draw(st.lists(_rationals, min_size=n, max_size=n))
    full = cons + [LinearConstraint(_unit(n, i), Sense.GE, F(0)) for i in range(n)]
    oracle = bounds_by_vertex_enumeration(full, n, tuple(obj))
    start = phase_one(cons, n)
    lo = _warm_equals_cold(minimize, obj, cons, n, start)
    hi = _warm_equals_cold(maximize, obj, cons, n, start)
    event("infeasible" if oracle is None else "feasible")
    if oracle is None:
        assert start is None
        assert lo.status is hi.status is LPStatus.INFEASIBLE
        return
    assert start is not None
    assert (lo.value, hi.value) == oracle
    for sol in (lo, hi):
        assert all(con.satisfied_by(sol.point) for con in full)
        assert sum(o * x for o, x in zip(obj, sol.point)) == sol.value
