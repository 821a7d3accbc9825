"""Probability bounds from evidence and the combination audit."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings

from dsaudit import (
    TotalConflictError,
    Verdict,
    audit,
    build_constraints,
    complement,
    enumerate_subsets,
    make_body,
    make_frame,
    probability_bounds,
    subset,
    vacuous,
    zadeh_fixture,
)
from dsaudit import lp
from strategies import bodies, frames

F = Fraction


@pytest.fixture
def abc():
    return make_frame(["a", "b", "c"])


@pytest.fixture
def partition_bodies_pair(abc):
    a = make_body(abc, [(subset(abc, ["a"]), "1/4"), (subset(abc, ["b", "c"]), "3/4")])
    b = make_body(abc, [(subset(abc, ["a", "b"]), "1/2"), (subset(abc, ["c"]), "1/2")])
    return a, b


@pytest.fixture
def quasi_bodies_pair(abc):
    a = make_body(
        abc,
        [
            (subset(abc, ["a"]), "1/4"),
            (subset(abc, ["b", "c"]), "1/2"),
            (abc.universe(), "1/4"),
        ],
    )
    b = make_body(abc, [(subset(abc, ["a", "b"]), "1/2"), (subset(abc, ["c"]), "1/2")])
    return a, b


def test_partition_system_pins_all_probabilities(partition_bodies_pair, abc):
    system = build_constraints(list(partition_bodies_pair))
    for labels, want in [
        (["a"], "1/4"),
        (["b", "c"], "3/4"),
        (["a", "b"], "1/2"),
        (["c"], "1/2"),
        (["b"], "1/4"),
    ]:
        interval = probability_bounds(system, subset(abc, labels))
        assert interval.feasible
        assert interval.lower == interval.upper == F(want)


def test_vacuous_body_contributes_no_constraints(abc):
    system = build_constraints([vacuous(abc)])
    # simplex only: non-negativity per element plus the total
    assert len(system.constraints) == abc.size + 1
    interval = probability_bounds(system, subset(abc, ["b"]))
    assert (interval.lower, interval.upper) == (0, 1)


def test_contradictory_bodies_are_infeasible():
    frame = make_frame(["a", "b"])
    a = make_body(frame, [(subset(frame, ["a"]), 1)])
    b = make_body(frame, [(subset(frame, ["b"]), 1)])
    system = build_constraints([a, b])
    interval = probability_bounds(system, subset(frame, ["a"]))
    assert not interval.feasible
    assert interval.lower is None and interval.upper is None


def test_quasi_system_interval_for_b(quasi_bodies_pair, abc):
    system = build_constraints(list(quasi_bodies_pair))
    interval = probability_bounds(system, subset(abc, ["b"]))
    assert (interval.lower, interval.upper) == (F(0), F(1, 4))


def test_whole_frame_is_always_one(quasi_bodies_pair, abc):
    system = build_constraints(list(quasi_bodies_pair))
    interval = probability_bounds(system, abc.universe())
    assert (interval.lower, interval.upper) == (1, 1)


def test_audit_partition_case_all_violations(partition_bodies_pair, abc):
    report = audit(list(partition_bodies_pair))
    assert report.kappa == F(1, 8)
    expected = {
        "{a}": ((F(1, 7), F(1, 7)), (F(1, 4), F(1, 4))),
        "{b}": ((F(3, 7), F(3, 7)), (F(1, 4), F(1, 4))),
        "{c}": ((F(3, 7), F(3, 7)), (F(1, 2), F(1, 2))),
    }
    assert len(report.findings) == 3
    for f in report.findings:
        ds, prob = expected[str(f.subset)]
        assert (f.ds_lower, f.ds_upper) == ds
        assert (f.prob.lower, f.prob.upper) == prob
        assert f.verdict is Verdict.VIOLATION
    assert report.worst_exit_code() == 4


def test_audit_quasi_case_disjoint_intervals(quasi_bodies_pair, abc):
    report = audit(list(quasi_bodies_pair))
    by_subset = {str(f.subset): f for f in report.findings}
    b = by_subset["{b}"]
    assert (b.ds_lower, b.ds_upper) == (F(2, 7), F(3, 7))
    assert (b.prob.lower, b.prob.upper) == (F(0), F(1, 4))
    assert b.verdict is Verdict.DISJOINT_VIOLATION
    # the other singleton cells disagree too, but their intervals meet
    assert by_subset["{c}"].verdict is Verdict.VIOLATION
    assert by_subset["{a}"].verdict is Verdict.COMPATIBLE
    assert report.worst_exit_code() == 4


def test_audit_zero_conflict_family_point_matches(abc):
    # x = 0 in the two-block family: A concentrates on {b,c}
    a = make_body(abc, [(subset(abc, ["b", "c"]), 1)])
    b = make_body(abc, [(subset(abc, ["a", "b"]), "1/3"), (subset(abc, ["c"]), "2/3")])
    report = audit([a, b])
    assert report.kappa == 0
    assert all(f.verdict is Verdict.EXACT_MATCH for f in report.findings)
    assert report.worst_exit_code() == 0


def test_audit_singleton_partition_with_vacuous_matches_exactly(abc):
    body = make_body(
        abc,
        [
            (subset(abc, ["a"]), "1/6"),
            (subset(abc, ["b"]), "1/3"),
            (subset(abc, ["c"]), "1/2"),
        ],
    )
    report = audit([body, vacuous(abc)])
    assert all(f.verdict is Verdict.EXACT_MATCH for f in report.findings)
    assert report.worst_exit_code() == 0


def test_audit_propagates_total_conflict():
    frame = make_frame(["a", "b"])
    a = make_body(frame, [(subset(frame, ["a"]), 1)])
    b = make_body(frame, [(subset(frame, ["b"]), 1)])
    with pytest.raises(TotalConflictError):
        audit([a, b])


def test_audit_requires_two_bodies(abc):
    with pytest.raises(ValueError):
        audit([vacuous(abc)])


def test_audit_infeasible_report(abc):
    a = make_body(abc, [(subset(abc, ["a"]), "99/100"), (subset(abc, ["c"]), "1/100")])
    b = make_body(abc, [(subset(abc, ["b"]), "99/100"), (subset(abc, ["c"]), "1/100")])
    report = audit([a, b])
    assert not report.feasible
    assert all(f.verdict is Verdict.INFEASIBLE for f in report.findings)
    assert report.worst_exit_code() == 5


@settings(max_examples=30, deadline=None)
@given(frames(max_size=4).flatmap(lambda f: bodies(frame=f, max_focal=4)))
def test_bounds_bracket_every_original_body(body):
    # Any body's own belief/plausibility must bracket the derived bounds.
    system = build_constraints([body])
    for s in enumerate_subsets(body.frame):
        interval = probability_bounds(system, s)
        assert interval.feasible
        assert interval.lower is not None and interval.upper is not None
        assert interval.lower <= interval.upper


@settings(max_examples=40, deadline=None)
@given(frames(max_size=3).flatmap(lambda f: bodies(frame=f, max_focal=3)))
def test_lower_and_upper_bounds_are_complementary(body):
    system = build_constraints([body])
    for s in enumerate_subsets(body.frame):
        lo = probability_bounds(system, s)
        hi = probability_bounds(system, complement(s))
        assert lo.lower + hi.upper == 1
        assert lo.upper + hi.lower == 1


def test_bounds_are_attained_by_feasible_distributions(quasi_bodies_pair, abc):
    # The reported optima must be witnessed by points satisfying every
    # constraint exactly, with the objective equal to the reported bound.
    system = build_constraints(list(quasi_bodies_pair))
    for s in enumerate_subsets(abc):
        objective = tuple(
            F(1) if s.bits >> i & 1 else F(0) for i in range(abc.size)
        )
        interval = probability_bounds(system, s)
        for solver, bound in (
            (lp.minimize, interval.lower),
            (lp.maximize, interval.upper),
        ):
            sol = solver(objective, system.constraints, abc.size)
            assert sol.status is lp.LPStatus.OPTIMAL
            assert sol.value == bound
            assert all(con.satisfied_by(sol.point) for con in system.constraints)
            assert sum(o * x for o, x in zip(objective, sol.point)) == bound


def test_crossing_partitions_with_zero_conflict_stay_underdetermined():
    # Two partitions can combine without conflict and still not pin the
    # probabilities: the combined cells are points, the derived bounds are
    # proper intervals containing them, so the verdicts are Compatible.
    frame = make_frame(["a", "b", "c", "d"])
    rows = make_body(
        frame, [(subset(frame, ["a", "b"]), "1/2"), (subset(frame, ["c", "d"]), "1/2")]
    )
    cols = make_body(
        frame, [(subset(frame, ["a", "c"]), "1/2"), (subset(frame, ["b", "d"]), "1/2")]
    )
    report = audit([rows, cols])
    assert report.kappa == 0
    for f in report.findings:
        assert f.ds_lower == f.ds_upper == F(1, 4)
        assert (f.prob.lower, f.prob.upper) == (F(0), F(1, 2))
        assert f.verdict is Verdict.COMPATIBLE


@pytest.fixture
def lp_calls(monkeypatch):
    """Counts of lp.phase_one and lp.minimize calls (maximize goes through
    minimize)."""
    counts = Counter()
    for name in ("phase_one", "minimize"):
        original = getattr(lp, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(lp, name, counted)
    return counts


def test_infeasible_audit_runs_phase_one_once_and_no_solve(lp_calls):
    report = zadeh_fixture()
    assert not report.feasible
    assert lp_calls == {"phase_one": 1}


def test_feasible_audit_runs_phase_one_once(partition_bodies_pair, lp_calls):
    report = audit(list(partition_bodies_pair))
    assert report.feasible
    assert lp_calls["phase_one"] == 1
    assert lp_calls["minimize"] == 2 * len(report.findings)
