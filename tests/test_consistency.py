"""Probability bounds from evidence and the combination audit."""

import json
import random
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cached_property
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from dsaudit import (
    TotalConflictError,
    Verdict,
    audit,
    belief,
    build_constraints,
    make_body,
    make_frame,
    parse_document,
    probability_bounds,
    subset,
    vacuous,
)
from dsaudit import consistency, lp
from dsaudit.consistency import ProbabilityConstraintSystem
from dsaudit.frames import FocalSet, enumerate_subsets
from dsaudit.repro import zadeh_fixture
from flow_oracle import two_body_bounds
from lp_oracle import element_bounds_by_vertex_enumeration, two_sided_system
import constraints_reference
import slack_form
from strategies import bodies, exact_masses, frames
from wide_systems import wide_bodies

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
    # one allocation row: the frame's mass splits over its elements
    assert len(system.constraints) == 1
    interval = probability_bounds(system, subset(abc, ["b"]))
    assert (interval.lower, interval.upper) == (0, 1)


def test_bayesian_body_has_no_rows_and_pins_every_singleton(abc):
    masses = {"a": F(1, 2), "b": F(1, 3), "c": F(1, 6)}
    body = make_body(abc, [(subset(abc, [w]), m) for w, m in masses.items()])
    system = build_constraints([body])
    assert system.constraints == ()
    assert system.start.rows == ()
    for w, m in masses.items():
        interval = probability_bounds(system, subset(abc, [w]))
        assert (interval.lower, interval.upper) == (m, m)


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


def test_audit_zero_conflict_family_point_matches(abc):
    # x = 0 in the two-block family: A concentrates on {b,c}
    a = make_body(abc, [(subset(abc, ["b", "c"]), 1)])
    b = make_body(abc, [(subset(abc, ["a", "b"]), "1/3"), (subset(abc, ["c"]), "2/3")])
    report = audit([a, b])
    assert report.kappa == 0
    assert all(f.verdict is Verdict.EXACT_MATCH for f in report.findings)


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


def test_audit_propagates_total_conflict():
    frame = make_frame(["a", "b"])
    a = make_body(frame, [(subset(frame, ["a"]), 1)])
    b = make_body(frame, [(subset(frame, ["b"]), 1)])
    with pytest.raises(TotalConflictError):
        audit([a, b])


def test_audit_requires_two_bodies(abc):
    with pytest.raises(ValueError):
        audit([vacuous(abc)])


def test_every_body_needs_a_name(abc):
    with pytest.raises(ValueError, match="1 names for 2 bodies"):
        build_constraints([vacuous(abc), vacuous(abc)], ["only"])


@pytest.mark.parametrize("names", ["AB", "ABC", "A" * 10**6], ids=["AB", "ABC", "long"])
def test_a_bare_string_of_names_is_refused(abc, names):
    # "AB" read as two names and "ABC" as three; the message quotes a prefix.
    a = make_body(abc, [(subset(abc, ["a"]), "1/4"), (subset(abc, ["b", "c"]), "3/4")])
    b = make_body(abc, [(subset(abc, ["a", "b"]), "1/2"), (subset(abc, ["c"]), "1/2")])
    with pytest.raises(ValueError, match="names take a sequence, not the string 'A") as exc_info:
        audit([a, b], names)
    assert len(str(exc_info.value)) < 100
    assert audit([a, b], ["A", "B"]).system.names == ("A", "B")


def test_audit_infeasible_report(abc):
    a = make_body(abc, [(subset(abc, ["a"]), "99/100"), (subset(abc, ["c"]), "1/100")])
    b = make_body(abc, [(subset(abc, ["b"]), "99/100"), (subset(abc, ["c"]), "1/100")])
    report = audit([a, b])
    assert not report.feasible
    assert all(f.verdict is Verdict.INFEASIBLE for f in report.findings)


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
    # The complement is bounded on a fresh copy of the system, whose memo
    # has not kept it from the target's answer.
    system = build_constraints([body])
    for s in enumerate_subsets(body.frame):
        lo = probability_bounds(system, s)
        hi = probability_bounds(replace(system), FocalSet(s.frame, s.bits ^ s.frame.universe().bits))
        assert lo.lower + hi.upper == 1
        assert lo.upper + hi.lower == 1


def test_bounds_are_attained_by_feasible_distributions(quasi_bodies_pair, abc):
    # The reported optima must be witnessed by distributions satisfying every
    # row of the two-sided system exactly, with P(s) equal to the bound.
    system = build_constraints(list(quasi_bodies_pair))
    two_sided = two_sided_system(list(quasi_bodies_pair))
    start = slack_form.phase_one(two_sided, abc.size)
    for s in enumerate_subsets(abc):
        objective = tuple(
            F(1) if s.bits >> i & 1 else F(0) for i in range(abc.size)
        )
        interval = probability_bounds(system, s)
        for solver, bound in (
            (slack_form.minimize, interval.lower),
            (slack_form.maximize, interval.upper),
        ):
            sol = solver(objective, two_sided, abc.size, start)
            assert sol.value == bound
            assert all(con.holds_at(sol.point) for con in two_sided)
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
    """Counts of lp.phase_one and lp.minimize calls; maximize goes through
    minimize."""
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


def test_feasible_audit_runs_phase_one_once(
    partition_bodies_pair, quasi_bodies_pair, abc, lp_calls
):
    singletons_with_frame = (
        make_body(abc, [(subset(abc, ["a"]), "1/2"), (abc.universe(), "1/2")]),
        make_body(abc, [(subset(abc, ["b"]), "1/2"), (abc.universe(), "1/2")]),
    )
    # A target that is neither the frame nor the complement of an earlier
    # target in ascending bitmask order asks for its min and its max.  Each
    # side whose per-body bound (max_k bel_k, min_k pl_k) a witness attains
    # costs no solve; the others cost one each (maximize goes through
    # minimize, so a max counts once).
    for pair, targets, solves in [
        # P is pinned to (1/4, 1/4, 1/2).  {a} and {c} are at bel_A({a}) and
        # bel_B({c}), which equal their pl; {b} is at neither
        # (max bel = 0, min pl = 1/2), so both of its sides are solved.
        (partition_bodies_pair, ["{a}", "{b}", "{c}"], 2),
        # quasi-x-xbar-y at (1/4, 1/2, 1/2): the min of {a} and the max of {b}
        # are solved; {a,b} is settled by the witnesses, and {c} is read off
        # {a,b}.
        (quasi_bodies_pair, ["{a}", "{b}", "{a,b}", "{c}"], 2),
        # P is pinned to (1/2, 1/2, 0), but pl({c}) = 1/2, so only the max of
        # {c} is solved.  The frame is a combined focal set and costs no LP.
        (singletons_with_frame, ["{a}", "{b}", "{c}", "{a,b,c}"], 1),
    ]:
        lp_calls.clear()
        report = audit(list(pair))
        assert report.feasible
        assert [str(f.subset) for f in report.findings] == targets
        assert lp_calls["phase_one"] == 1
        assert lp_calls["minimize"] == solves


def test_direct_bounds_read_complements_and_repeats_from_the_system(
    partition_bodies_pair, abc, lp_calls
):
    # The README bodies pin P to (1/4, 1/4, 1/2).  {b} is at neither per-body
    # bound, so both of its sides are solved; {a,c} is its complement, {b}
    # is asked again, and the frame is at both per-body bounds, so the
    # other three cost no LP.
    system = build_constraints(list(partition_bodies_pair))
    costs = []
    for labels, bounds in [
        (["b"], (F(1, 4), F(1, 4))),
        (["a", "c"], (F(3, 4), F(3, 4))),
        (["b"], (F(1, 4), F(1, 4))),
        (["a", "b", "c"], (F(1), F(1))),
    ]:
        lp_calls.clear()
        interval = probability_bounds(system, subset(abc, labels))
        assert (interval.subset, interval.lower, interval.upper) == (subset(abc, labels), *bounds)
        costs.append(lp_calls["minimize"])
    assert costs == [2, 0, 0, 0]
    assert system.solved == {
        0b010: (F(1, 4), F(1, 4)),
        0b101: (F(3, 4), F(3, 4)),
        0b111: (F(1), F(1)),
        0b000: (F(0), F(0)),
    }


@st.composite
def audited_bodies(draw):
    """2-3 bodies on 3-5 elements whose focal sets are often the whole
    frame, so that the frame is often a combined focal set."""
    frame = draw(frames(min_size=3, max_size=5))
    full = (1 << frame.size) - 1
    masks = st.integers(1, full) | st.just(full)
    out = []
    for _ in range(draw(st.integers(2, 3))):
        bits = draw(st.lists(masks, min_size=1, max_size=3, unique=True))
        masses = draw(exact_masses(len(bits)))
        out.append(make_body(frame, [(FocalSet(frame, b), m) for b, m in zip(bits, masses)]))
    return out


def _cold_bounds(system, target):
    """min and max of P(target) by one LP each from the system's phase-one
    start, plus body 0's fixed mass on target: the route that reads no
    witness."""
    if not system.feasible:
        return None, None
    bits = target.bits
    objective = [1 if k == 0 and bits >> w & 1 else 0 for k, w in system.owners]
    base = F(sum([m for w, m in enumerate(system.fixed) if bits >> w & 1]), system.den)
    n = len(objective)
    low = lp.minimize(objective, system.constraints, n, system.start)
    high = lp.maximize(objective, system.constraints, n, system.start)
    return base + low.value, base + high.value


@settings(max_examples=150, deadline=None)
@given(audited_bodies())
def test_audit_bounds_equal_direct_solves(bodies_):
    # The frame's [1, 1], every interval read off a complement's solve and
    # every side settled by a witness must equal both LPs solved cold for
    # that target itself.
    with mock.patch.object(
        consistency, "probability_bounds", wraps=probability_bounds
    ) as asked, mock.patch.object(lp, "minimize", wraps=lp.minimize) as solves, mock.patch.object(
        lp, "maximize", wraps=lp.maximize
    ) as maxima:
        try:
            report = audit(bodies_)
        except TotalConflictError:
            event("total conflict")
            return
    full = (1 << report.system.frame.size) - 1
    targets = {f.subset.bits for f in report.findings}
    event("infeasible" if not report.feasible else "feasible")
    if full in targets:
        event("frame is a target")
    if any(full ^ bits in targets for bits in targets if bits != full):
        event("complement pair")
    # maximize goes through minimize, so the min solves are the difference.
    if report.feasible and solves.call_count - maxima.call_count < asked.call_count:
        event("min from witness")
    if report.feasible and maxima.call_count < asked.call_count:
        event("max from witness")
    for f in report.findings:
        assert (f.prob.lower, f.prob.upper) == _cold_bounds(report.system, f.subset)


@st.composite
def witness_bodies(draw):
    """2-4 bodies on 3-8 elements.  In half the draws every body is built
    around one distribution P: each element's weight goes to a focal set
    that holds it, so P is feasible for every body.  The other half draw
    each body's focal sets and masses freely, and are often infeasible."""
    frame = make_frame([f"e{i}" for i in range(draw(st.integers(3, 8)))])
    n, full = frame.size, (1 << frame.size) - 1
    count = draw(st.integers(2, 4))
    if not draw(st.booleans()):
        event("free bodies")
        return [draw(bodies(frame=frame, max_focal=4)) for _ in range(count)]
    event("one distribution")
    weights = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any))
    out = []
    for _ in range(count):
        pool = draw(st.lists(st.integers(0, full), min_size=1, max_size=3))
        mass = Counter()
        for w, weight in enumerate(weights):
            if weight:
                mass[draw(st.sampled_from(pool)) | 1 << w] += weight
        total = sum(weights)
        out.append(make_body(frame, [(FocalSet(frame, b), F(m, total)) for b, m in mass.items()]))
    return out


_E6 = make_frame([f"e{i}" for i in range(6)])
# Three bodies, found by a seeded search, some of whose solves end on a
# basis with |det B| = 2, so that a witness holds P at scale d = 2 after its
# gcd is taken out, and whose body 0 fixes the mass of {e4}.  Random draws
# reach d = 2 in about one example in 150.
_SCALED_WITNESS = [
    make_body(_E6, [(subset(_E6, s.split()), F(m, 19)) for s, m in pairs])
    for pairs in (
        [("e0 e2 e3", 1), ("e4", 4), ("e0 e2 e3 e5", 4), ("e0 e1 e3 e4 e5", 9),
         ("e0 e1 e2 e3 e4 e5", 1)],
        [("e0 e3", 1), ("e1 e2 e3", 6), ("e1 e2 e3 e5", 4), ("e2 e4 e5", 4),
         ("e0 e2 e4 e5", 4)],
        [("e0 e1 e3 e4", 4), ("e0 e1 e2 e3 e4", 1), ("e4 e5", 4), ("e0 e4 e5", 4),
         ("e1 e4 e5", 5), ("e3 e4 e5", 1)],
    )
]


@settings(max_examples=40, deadline=None)
@given(witness_bodies(), st.randoms(use_true_random=False))
@example(_SCALED_WITNESS, random.Random(0))
def test_witness_bounds_equal_cold_solves(bodies_, rng):
    # Every nonempty subset's bounds, asked of a fresh system (whose memo
    # holds only the start once it is seeded) and of one whose memo was
    # filled by asking for every subset in a shuffled order, equal two cold
    # LPs.
    system = build_constraints(bodies_)
    event("feasible" if system.feasible else "infeasible")
    frame = system.frame
    targets = [FocalSet(frame, bits) for bits in range(1, 1 << frame.size)]
    cold = {s.bits: _cold_bounds(system, s) for s in targets}
    for s in targets:
        interval = probability_bounds(replace(system), s)
        assert (interval.lower, interval.upper) == cold[s.bits]
    filled = replace(system)
    rng.shuffle(targets)
    for s in targets:
        interval = probability_bounds(filled, s)
        assert (interval.lower, interval.upper) == cold[s.bits]
    for s in targets:
        interval = probability_bounds(filled, s)
        assert (interval.lower, interval.upper) == cold[s.bits]
    # Every witness is a distribution that every body allows: P(S) >= bel(S)
    # for all S is that condition (Dempster 1967), checked through `belief`.
    for d, p in filled.witnesses:
        assert sum(p) == system.den * d and min(p) >= 0
        for s in targets:
            at = F(sum(p[w] for w in range(frame.size) if s.bits >> w & 1), system.den * d)
            assert all(belief(body, s) <= at for body in bodies_)


def test_the_scaled_example_holds_a_witness_at_scale_two():
    # So the example of the test above reads a witness whose ints are over
    # den * 2, where a wrong scale shows.
    system = build_constraints(_SCALED_WITNESS)
    for bits in range(1, 1 << _E6.size):
        probability_bounds(system, FocalSet(_E6, bits))
    assert 2 in {d for d, _ in system.witnesses}


@settings(max_examples=100, deadline=None)
@given(
    frames(min_size=3, max_size=3).flatmap(
        lambda f: st.lists(bodies(frame=f, max_focal=4), min_size=2, max_size=3)
    )
)
def test_chained_solves_equal_cold_solves(bodies_):
    # Allocation systems shaped like the audit-random benchmark's: each
    # target's min starts from the previous min's basis and its max from the
    # previous max's, and every value equals a cold solve's: one from the
    # system's own phase-one start.
    system = build_constraints(bodies_)
    event("feasible" if system.feasible else "infeasible")
    if not system.feasible:
        return
    rows, n = system.constraints, len(system.owners)
    chains = {lp.minimize: system.start, lp.maximize: system.start}
    for s in enumerate_subsets(system.frame):
        objective = [1 if k == 0 and s.bits >> w & 1 else 0 for k, w in system.owners]
        for solver, start in chains.items():
            sol = solver(objective, rows, n, start)
            assert sol.value == solver(objective, rows, n, system.start).value
            point = sol.point
            assert all(sum(a * x for a, x in zip(con.coeffs, point)) == con.rhs for con in rows)
            chains[solver] = sol.basis


def test_twenty_element_audit_needs_no_power_set():
    # A splits the frame into halves; B puts 1/4 on e0 and the rest on the
    # frame.  So P(first half) = P(second half) = 1/2 and P(e0) is in
    # [1/4, 1/2], while the combined body has {e0}: 1/7 and 3/7 per half.
    labels = [f"e{i}" for i in range(20)]
    doc = parse_document(
        json.dumps(
            {
                "frame": labels,
                "bodies": {
                    "A": [
                        {"set": labels[:10], "mass": "1/2"},
                        {"set": labels[10:], "mass": "1/2"},
                    ],
                    "B": [{"set": ["e0"], "mass": "1/4"}, {"set": labels, "mass": "3/4"}],
                },
            }
        )
    )
    began = time.perf_counter()
    report = audit([doc.bodies["A"], doc.bodies["B"]], ["A", "B"])
    assert time.perf_counter() - began < 5
    assert report.kappa == F(1, 8)
    by_subset = {str(f.subset): f for f in report.findings}
    assert len(by_subset) == 22
    first_half = "{" + ",".join(labels[:10]) + "}"
    second_half = "{" + ",".join(labels[10:]) + "}"
    expected = {
        "{e0}": (F(1, 7), F(4, 7), F(1, 4), F(1, 2), Verdict.COMPATIBLE),
        "{e1}": (F(0), F(3, 7), F(0), F(1, 4), Verdict.COMPATIBLE),
        "{e19}": (F(0), F(3, 7), F(0), F(1, 2), Verdict.COMPATIBLE),
        first_half: (F(4, 7), F(4, 7), F(1, 2), F(1, 2), Verdict.VIOLATION),
        second_half: (F(3, 7), F(3, 7), F(1, 2), F(1, 2), Verdict.VIOLATION),
    }
    for name, want in expected.items():
        f = by_subset[name]
        assert (f.ds_lower, f.ds_upper, f.prob.lower, f.prob.upper, f.verdict) == want


@settings(max_examples=60, deadline=None)
@given(
    frames(min_size=2, max_size=5).flatmap(
        lambda f: st.lists(bodies(frame=f, max_focal=3), min_size=1, max_size=3)
    )
)
def test_belief_rows_bound_like_the_two_sided_system(bodies_):
    system = build_constraints(bodies_)
    two_sided = two_sided_system(bodies_)
    n = system.frame.size
    start = slack_form.phase_one(two_sided, n)
    assert (start is None) == (not system.feasible)
    # The vertex oracle is exhaustive, so, as in criterion 7, it checks the
    # singleton targets of 3-element frames only.
    oracle = element_bounds_by_vertex_enumeration(two_sided, n) if n == 3 else None
    for s in enumerate_subsets(system.frame):
        objective = tuple(F(s.bits >> i & 1) for i in range(n))
        interval = probability_bounds(system, s)
        if start is not None:
            low = slack_form.minimize(objective, two_sided, n, start=start)
            high = slack_form.maximize(objective, two_sided, n, start=start)
            assert (interval.lower, interval.upper) == (low.value, high.value)
        if n == 3 and s.bits.bit_count() == 1:
            if oracle is None:
                assert not interval.feasible
            else:
                assert (interval.lower, interval.upper) == oracle[s.bits.bit_length() - 1]


@st.composite
def wide_body_pairs(draw):
    """Two bodies on a frame of 1-10 elements, with 1-4 focal sets each."""
    frame = make_frame([f"x{i}" for i in range(draw(st.integers(1, 10)))])
    return tuple(draw(bodies(frame=frame, max_focal=4)) for _ in range(2))


@settings(max_examples=200, deadline=None)
@given(wide_body_pairs(), st.data())
def test_two_body_bounds_match_the_min_cost_flow(pair, data):
    system = build_constraints(pair)
    if system.feasible:
        # Two-body allocation matrices are totally unimodular, so every basis
        # has |det| 1 and phase one leaves the tableau at scale d = 1.
        start = system.start
        assert all(row[b] == 1 for row, b in zip(start.rows, start.basis))
    frame = system.frame
    targets = [1 << w for w in range(frame.size)]
    targets.append(data.draw(st.integers(1, (1 << frame.size) - 1)))
    for bits in targets:
        interval = probability_bounds(system, FocalSet(frame, bits))
        flow = two_body_bounds(*pair, bits)
        event("infeasible" if flow is None else "feasible")
        assert (flow is None) == (not interval.feasible)
        if flow is not None:
            assert (interval.lower, interval.upper) == flow


@st.composite
def constraint_bodies(draw):
    """1-4 bodies on a frame of 1-8 elements.  A body is vacuous, holds only
    singletons, or holds any 1-4 focal sets, each with its own denominator,
    so systems with several `den`, infeasible systems and split-free bodies
    all occur."""
    frame = make_frame([f"e{i}" for i in range(draw(st.integers(1, 8)))])
    out = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["vacuous", "singletons", "any"]))
        if kind == "vacuous":
            out.append(vacuous(frame))
            continue
        if kind == "singletons":
            size = draw(st.integers(1, min(4, frame.size)))
            masks = [1 << w for w in draw(st.permutations(range(frame.size)))[:size]]
        else:
            full = (1 << frame.size) - 1
            masks = draw(st.lists(st.integers(1, full), min_size=1, max_size=min(4, full), unique=True))
        masses = draw(exact_masses(len(masks)))
        out.append(make_body(frame, [(FocalSet(frame, b), m) for b, m in zip(masks, masses)]))
    return out


@settings(max_examples=200, deadline=None)
@given(constraint_bodies(), st.booleans())
def test_build_constraints_matches_the_reference_builder(bodies_, named):
    # The int-row builder against the LinearConstraint builder it replaced
    # (tests/constraints_reference.py): equal rows, rhs, tags, owners and
    # fixed masses, and the very same phase-one tableau, basis and den, so
    # every later pivot is the same too.  `lp.phase_one` checks nothing, so
    # the rows it gets must be exact ints over a positive den.
    names = [f"B{k}" for k in range(len(bodies_))] if named else None
    system = build_constraints(bodies_, names)
    constraints, owners, fixed, start = constraints_reference.build_constraints(bodies_, names)
    event("feasible" if start is not None else "infeasible")
    event(f"{len({b.den for b in bodies_})} distinct den")
    assert all(type(v) is int for row in system.rows for v in row)
    assert type(system.den) is int and system.den >= 1
    assert system.start == start
    assert system.owners == owners
    assert tuple(F(m, system.den) for m in system.fixed) == fixed
    assert all(type(m) is int for m in system.fixed)
    assert system.constraints == constraints
    assert [type(con.rhs) for con in system.constraints] == [F] * len(constraints)


def _counted_constraints(monkeypatch):
    """Patch ProbabilityConstraintSystem.constraints to count its builds."""
    builds = []
    view = ProbabilityConstraintSystem.constraints

    def counted(system):
        builds.append(system)
        return view.func(system)

    patched = cached_property(counted)
    patched.__set_name__(ProbabilityConstraintSystem, "constraints")
    monkeypatch.setattr(ProbabilityConstraintSystem, "constraints", patched)
    return builds


def test_an_infeasible_audit_builds_no_view(monkeypatch):
    builds = _counted_constraints(monkeypatch)
    doc = parse_document(
        json.dumps(
            {
                "frame": ["a", "b", "c"],
                "bodies": {
                    "A": [{"set": ["a"], "mass": "1/2"}, {"set": ["b", "c"], "mass": "1/2"}],
                    "B": [{"set": ["b"], "mass": "3/4"}, {"set": ["a", "c"], "mass": "1/4"}],
                },
            }
        )
    )
    bodies_ = list(doc.bodies.values())
    report = audit(bodies_, list(doc.bodies))
    assert not report.feasible
    assert builds == []
    assert "constraints" not in vars(report.system)
    for body in (*bodies_, report.combined):
        assert "focal" not in vars(body)


def test_a_feasible_audit_builds_the_constraints_once(monkeypatch, partition_bodies_pair):
    builds = _counted_constraints(monkeypatch)
    report = audit(list(partition_bodies_pair), ["A", "B"])
    assert report.feasible
    assert builds == [report.system]
    # Reading the view again returns the kept tuple.
    assert [con.tag for con in report.system.constraints] == [
        "A:split:{b,c}",
        "B:split:{a,b}",
        "B:marginal:a",
        "B:marginal:b",
    ]
    assert builds == [report.system]


def test_threads_bound_one_shared_system_as_one_thread_does():
    # Each solve adds a witness to the shared system while the other threads
    # scan the witnesses; a switch interval of a microsecond makes them
    # interleave inside the scan.
    bodies_ = wide_bodies(1, 2, 8, 6)
    shared = build_constraints(bodies_)
    targets = [FocalSet(shared.frame, bits) for bits in range(1, 1 << shared.frame.size)]
    bounds, errors = {}, []

    def bound(offset):
        try:
            for s in targets[offset::4]:
                bounds[s] = probability_bounds(shared, s)
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=bound, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    fresh = build_constraints(bodies_)
    assert bounds == {s: probability_bounds(fresh, s) for s in targets}
