"""Exact simplex solver: known optima, infeasibility, degeneracy, oracle.

The solver takes equality rows only; every system here is written as the
vertex oracle's rows, of any sense, and solved through `slack_form`, which
adds one slack per inequality and drops the slacks from the point.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dsaudit import lp
from lp_oracle import SENSES, Row, bounds_by_vertex_enumeration
from slack_form import _equality_form, int_rows, maximize, minimize, phase_one

F = Fraction
LE, GE, EQ = "<=", ">=", "=="


def c(coeffs, sense, rhs):
    return Row(tuple(F(x) for x in coeffs), sense, F(rhs))


def test_textbook_maximum():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6
    cons = [c([1, 1], LE, 4), c([1, 3], LE, 6)]
    sol = maximize([F(3), F(2)], cons, 2, phase_one(cons, 2))
    assert sol.value == 12
    assert sol.point == (F(4), F(0))


def test_minimum_with_lower_bounds():
    # min 2x + 3y s.t. x + y >= 2
    cons = [c([1, 1], GE, 2)]
    sol = minimize([F(2), F(3)], cons, 2, phase_one(cons, 2))
    assert sol.value == 4
    assert sol.point == (F(2), F(0))


def test_equality_constraint_forces_point():
    cons = [c([1, 1], EQ, 1), c([1, 0], EQ, "1/3")]
    start = phase_one(cons, 2)
    lo = minimize([F(0), F(1)], cons, 2, start)
    hi = maximize([F(0), F(1)], cons, 2, start)
    assert lo.value == hi.value == F(2, 3)


def test_infeasible_system():
    # Infeasibility has one spelling: phase one finds no start.
    cons = [c([1, 1], EQ, 1), c([1, 0], GE, 2)]
    assert phase_one(cons, 2) is None


def test_start_must_match_num_vars():
    cons = [c([1, 1], EQ, 1)]
    with pytest.raises(ValueError):
        minimize([F(1)], [c([1], EQ, 1)], 1, phase_one(cons, 2))


_ROW = lp.LinearConstraint((1, 1), F(1, 2))
_START = lp.phase_one(*int_rows([_ROW]), 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: lp.minimize([F(1, 2), 0], [_ROW], 2, _START),
        lambda: lp.maximize([F(1, 2), 0], [_ROW], 2, _START),
        lambda: lp.minimize([True, 0], [_ROW], 2, _START),
        lambda: lp.maximize([True, 0], [_ROW], 2, _START),
    ],
    ids=["minimize-objective", "maximize-objective", "minimize-bool", "maximize-bool"],
)
def test_fraction_coefficients_are_refused(call):
    # The tableau is integer, so `//` would floor a Fraction silently.  A
    # bool is an int to isinstance, and maximize's negation would make it one.
    with pytest.raises(ValueError):
        call()


def test_unbounded_problem():
    # With one row and with none, phase one keeps every row, the positive
    # objective is least at the origin, and x is unbounded above.
    for cons in ([c([0, 1], LE, 1)], []):
        start = phase_one(cons, 2)
        assert len(start.rows) == len(cons)
        with pytest.raises(ArithmeticError, match="unbounded"):
            maximize([F(1), F(0)], cons, 2, start)
        assert minimize([F(1), F(1)], cons, 2, start).value == 0


def test_negative_rhs_is_normalized():
    # -x <= -2 is x >= 2
    cons = [c([-1], LE, -2), c([1], LE, 5)]
    sol = minimize([F(1)], cons, 1, phase_one(cons, 1))
    assert sol.value == 2


def test_redundant_and_duplicate_constraints_tolerated():
    cons = [
        c([1, 1], EQ, 1),
        c([1, 1], EQ, 1),
        c([1, 1], LE, 1),
        c([1, 0], LE, 1),
        c([1, 0], GE, 0),
    ]
    start = phase_one(cons, 2)
    # the duplicate equality is redundant and dropped from the start
    assert len(start.rows) < len(cons)
    for solver, obj, want in (
        (maximize, [F(1), F(0)], 1),
        (minimize, [F(1), F(0)], 0),
        (maximize, [F(0), F(1)], 1),
    ):
        assert solver(obj, cons, 2, start).value == want


def test_degenerate_vertex():
    # three boundaries through one point; Bland's rule must not cycle
    cons = [
        c([1, 1], LE, 1),
        c([1, 0], LE, 1),
        c([2, 1], LE, 2),
    ]
    start = phase_one(cons, 2)
    for solver, obj, want in (
        (maximize, [F(1), F(1)], 1),
        (maximize, [F(2), F(1)], 2),
        (minimize, [F(-1), F(0)], -1),
    ):
        assert solver(obj, cons, 2, start).value == want


def test_exact_fractions_survive():
    cons = [c([1, 1, 1], EQ, 1), c(["1/7", 0, 0], GE, "1/49")]
    sol = minimize([F(1), F(0), F(0)], cons, 3, phase_one(cons, 3))
    assert sol.value == F(1, 7)


def test_solution_point_satisfies_all_constraints():
    cons = [
        c([1, 1, 1], EQ, 1),
        c([1, 0, 0], GE, "1/4"),
        c([1, 1, 0], LE, "1/2"),
    ]
    start = phase_one(cons, 3)
    for solver, obj in ((minimize, [F(0), F(1), F(0)]), (maximize, [F(0), F(1), F(0)])):
        sol = solver(obj, cons, 3, start)
        assert all(con.holds_at(sol.point) for con in cons)
        assert sum(o * x for o, x in zip(obj, sol.point)) == sol.value


def test_agrees_with_vertex_oracle_on_fixed_cases():
    systems = [
        [c([1, 1], EQ, 1)],
        [c([1, 1], EQ, 1), c([1, 0], LE, "2/3")],
        [
            c([1, 1, 1], EQ, 1),
            c([1, 0, 0], GE, "1/4"),
            c([0, 1, 1], LE, "3/4"),
            c([1, 1, 0], EQ, "1/2"),
        ],
    ]
    for cons in systems:
        n = len(cons[0].coeffs)
        nonneg = [
            c([1 if j == i else 0 for j in range(n)], GE, 0) for i in range(n)
        ]
        full = cons + nonneg
        start = phase_one(full, n)
        for i in range(n):
            obj = tuple(F(1) if j == i else F(0) for j in range(n))
            oracle = bounds_by_vertex_enumeration(full, n, obj)
            assert oracle is not None
            lo = minimize(obj, full, n, start)
            hi = maximize(obj, full, n, start)
            assert (lo.value, hi.value) == oracle


# Denominators include the unrelated primes 97 and 101, so that the integer
# rows `slack_form` makes by scaling each row by its lcm carry large, coprime
# entries.
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
        cons.append(Row(coeffs, draw(st.sampled_from(SENSES)), rhs))
    cons += draw(st.lists(st.sampled_from(cons), max_size=2))
    for i in range(n):
        u = x0[i] + draw(_positive)
        if draw(st.booleans()):
            cons.append(Row(_unit(n, i), LE, u))
        else:
            cons.append(Row(tuple(-v for v in _unit(n, i)), GE, -u))
    return draw(st.permutations(cons)), n


@settings(max_examples=300, deadline=None)
@given(_systems(), st.data())
def test_simplex_matches_vertex_oracle_on_random_systems(system, data):
    cons, n = system
    obj = data.draw(st.lists(_rationals, min_size=n, max_size=n))
    full = cons + [Row(_unit(n, i), GE, F(0)) for i in range(n)]
    oracle = bounds_by_vertex_enumeration(full, n, tuple(obj))
    start = phase_one(cons, n)
    event("infeasible" if oracle is None else "feasible")
    assert (start is None) == (oracle is None)
    if start is None:
        return
    _assert_one_scale(start)
    lo = minimize(obj, cons, n, start)
    hi = maximize(obj, cons, n, start)
    assert (lo.value, hi.value) == oracle
    for sol in (lo, hi):
        _assert_one_scale(sol.basis)
        assert all(con.holds_at(sol.point) for con in full)
        assert sum(o * x for o, x in zip(obj, sol.point)) == sol.value


@settings(max_examples=200, deadline=None)
@given(_systems())
def test_phase_one_pivots_only_the_lp_columns(system):
    # Artificials have no column, so every row phase one pivots, the reduced
    # row included, is the constraint's variables and its rhs.
    constraints, width = _equality_form(*system)
    event("negative rhs" if any(con.rhs < 0 for con in constraints) else "rhs >= 0")
    pivot = lp._pivot
    seen = set()

    def recording(rows, *args):
        seen.update(map(len, rows))
        return pivot(rows, *args)

    with mock.patch.object(lp, "_pivot", recording):
        start = lp.phase_one(*int_rows(constraints), width)
    event("infeasible" if start is None else f"{len(constraints) - len(start.rows)} rows dropped")
    assert seen <= {width + 1}


def _assert_one_scale(start):
    """The basic columns are d*I for one scale d > 0 shared by every row."""
    d = start.rows[0][start.basis[0]] if start.rows else 1
    assert d > 0
    for i, b in enumerate(start.basis):
        assert [row[b] for row in start.rows] == [d * (k == i) for k in range(len(start.rows))]


@settings(max_examples=200, deadline=None)
@given(_systems(), st.data())
def test_a_solve_basis_is_a_valid_start(system, data):
    # An optimal basis of one objective is feasible for every objective over
    # the same rows, so a solve started from it reaches the optimum a solve
    # from phase one's start does.
    cons, n = system
    first = data.draw(st.lists(_rationals, min_size=n, max_size=n))
    second = data.draw(st.lists(_rationals, min_size=n, max_size=n))
    start = phase_one(cons, n)
    event("infeasible" if start is None else "feasible")
    if start is None:
        return
    full = cons + [Row(_unit(n, i), GE, F(0)) for i in range(n)]
    for earlier in (minimize, maximize):
        basis = earlier(first, cons, n, start).basis
        assert (len(basis.rows), basis.den) == (len(start.rows), start.den)
        _assert_one_scale(basis)
        for solver in (minimize, maximize):
            chained = solver(second, cons, n, basis)
            assert chained.value == solver(second, cons, n, start).value
            assert all(con.holds_at(chained.point) for con in full)
