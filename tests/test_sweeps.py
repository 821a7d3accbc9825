"""Parametric families, closed forms, grid sweeps, and the classic fixtures."""

import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsaudit import (
    Family,
    TotalConflictError,
    Verdict,
    build_constraints,
    combine,
    make_frame,
    probability_bounds,
    subset,
    sweep,
    sweep_to_csv,
)
from dsaudit import sweeps
from dsaudit.consistency import ProbabilityInterval, _verdict
from dsaudit.evidence import StructureTag, classify, make_body
from dsaudit.sweeps import (
    closed_form_masses,
    instantiate,
    partition_spec,
    quasi_balance_equation_holds,
    quasi_spec,
    zadeh_fixture,
)

F = Fraction


def test_instantiate_partition_point():
    a, b = instantiate(partition_spec(F(1, 4), F(1, 2)))
    frame = a.frame
    assert a.mass_of(subset(frame, ["a"])) == F(1, 4)
    assert a.mass_of(subset(frame, ["b", "c"])) == F(3, 4)
    assert b.mass_of(subset(frame, ["a", "b"])) == F(1, 2)
    assert classify(a) is StructureTag.PARTITION


def test_instantiate_quasi_point():
    a, b = instantiate(quasi_spec(F(1, 4), F(1, 2), F(1, 2)))
    frame = a.frame
    assert a.mass_of(frame.universe()) == F(1, 4)
    assert classify(a) is StructureTag.QUASI_PARTITION
    assert classify(b) is StructureTag.PARTITION


def test_instantiate_drops_zero_masses():
    a, _ = instantiate(partition_spec(F(0), F(1, 3)))
    frame = a.frame
    assert a.focal_sets() == (subset(frame, ["b", "c"]),)


def test_spec_validation():
    invalid = [
        lambda: partition_spec(F(5, 4), F(1, 2)),
        lambda: quasi_spec(F(3, 4), F(1, 2), F(1, 2)),  # x + xbar > 1
        lambda: partition_spec(F(-1, 4), F(1, 2)),
        lambda: quasi_spec(F(-1, 4), F(1, 2), F(1, 2)),
        lambda: partition_spec(F(1, 4), F(-1, 2)),
        lambda: quasi_spec(F(1, 4), F(1, 2), F(-1, 2)),
        # Not masses: as_mass refuses them, though each reads as one in [0, 1].
        lambda: partition_spec(0.1, F(1, 2)),
        lambda: partition_spec(F(1, 4), True),
        lambda: partition_spec("1e-3000000", "1/2"),
    ]
    for make in invalid:
        with pytest.raises(ValueError):
            make()


def test_partition_family_is_the_xbar_one_minus_x_slice():
    grid = [F(i, 6) for i in range(7)]
    for x in grid:
        for y in grid:
            partition, quasi = partition_spec(x, y), quasi_spec(x, 1 - x, y)
            assert instantiate(partition) == instantiate(quasi)
            if x == 1 and y == 0:
                for spec in (partition, quasi):
                    with pytest.raises(TotalConflictError):
                        closed_form_masses(spec)
            else:
                assert closed_form_masses(partition) == closed_form_masses(quasi)


def test_closed_forms_partition_example():
    forms = closed_form_masses(partition_spec(F(1, 4), F(1, 2)))
    frame = make_frame(["a", "b", "c"])
    assert forms == {
        subset(frame, ["a"]): F(1, 7),
        subset(frame, ["b"]): F(3, 7),
        subset(frame, ["c"]): F(3, 7),
    }


def test_closed_forms_quasi_example():
    forms = closed_form_masses(quasi_spec(F(1, 4), F(1, 2), F(1, 2)))
    frame = make_frame(["a", "b", "c"])
    assert forms[subset(frame, ["a", "b"])] == F(1, 7)
    assert forms[subset(frame, ["c"])] == F(3, 7)


def test_closed_forms_degenerate_point_is_total_conflict():
    with pytest.raises(TotalConflictError):
        closed_form_masses(partition_spec(F(1), F(0)))


def symbolic_check(spec):
    """The closed-form masses at ``spec``, asserted equal to combine()'s output
    together with kappa = x(1 - y); returns (closed forms, combined body)."""
    forms = closed_form_masses(spec)
    result = combine(*instantiate(spec))
    assert dict(result.combined.focal) == forms
    assert result.kappa == spec.x * (1 - spec.y)
    return forms, result.combined


def test_symbolic_check_agrees_at_boundary():
    forms, combined = symbolic_check(partition_spec(F(0), F(1, 3)))
    frame = combined.frame
    assert forms == {
        subset(frame, ["b"]): F(1, 3),
        subset(frame, ["c"]): F(2, 3),
    }


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12))
def test_symbolic_check_partition_on_grid(i, j):
    x, y = F(i, 12), F(j, 12)
    if x == 1 and y == 0:
        with pytest.raises(TotalConflictError):
            symbolic_check(partition_spec(x, y))
        return
    forms, combined = symbolic_check(partition_spec(x, y))
    assert sum(forms.values()) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_symbolic_check_quasi_on_grid(i, k, j):
    x, xbar, y = F(i, 8), F(k, 8), F(j, 8)
    if x + xbar > 1:
        return
    if x == 1 and y == 0:
        return
    forms, combined = symbolic_check(quasi_spec(x, xbar, y))
    assert sum(forms.values()) == 1


def test_quasi_balance_equation_region():
    grid = [F(i, 6) for i in range(7)]
    for x in grid:
        for y in grid:
            held = quasi_balance_equation_holds(x, y)
            if x == 1 and y == 0:
                assert held is None
            else:
                assert held == (x == 0 or y == 0 or y == 1)


def test_partition_sweep_small_grid():
    result = sweep(Family.PARTITION_XY, 4)
    assert len(result.points) == 25
    assert sum(len(p.rows) for p in result.points) == 75
    consistent = {(p.x, p.y) for p in result.consistent}
    expected = {(F(0), F(i, 4)) for i in range(5)} | {(F(i, 4), F(1)) for i in range(5)}
    assert consistent == expected
    assert len(consistent) == 9
    # consistency coincides with zero conflict
    assert {(p.x, p.y) for p in result.points if p.kappa == 0} == expected


def test_partition_sweep_total_conflict_point():
    result = sweep(Family.PARTITION_XY, 4)
    tc = [p for p in result.points if p.total_conflict]
    assert [(p.x, p.y) for p in tc] == [(F(1), F(0))]
    assert tc[0].kappa == 1
    assert all(r.verdict is None for r in tc[0].rows)


def test_sweep_kappa_matches_closed_form():
    result = sweep(Family.PARTITION_XY, 3)
    for p in result.points:
        assert p.kappa == p.x * (1 - p.y)


def test_quasi_sweep_slice():
    result = sweep(Family.QUASI_X_XBAR_Y, 2, xbar_slices=[F(1, 2)])
    # x in {0, 1/2} (x=1 excluded by x+xbar<=1), y in {0, 1/2, 1}
    assert {(p.x, p.y) for p in result.points} == {
        (F(i, 2), F(j, 2)) for i in range(2) for j in range(3)
    }
    assert all(p.xbar == F(1, 2) for p in result.points)
    # All-ExactMatch needs every cell to be a matching point, which the
    # leftover uncertainty mass prevents except where combination collapses:
    # (0,0) sends everything to {c}; (1/2,1) has no uncertainty mass left.
    consistent = {(p.x, p.y) for p in result.consistent}
    assert consistent == {(F(0), F(0)), (F(1, 2), F(1))}
    # At x=0, y=1/2 the combined body keeps an {a,b} block: the point cells
    # match exactly and the singleton cells are properly interval-valued.
    mixed = next(p for p in result.points if p.x == 0 and p.y == F(1, 2))
    verdicts = {str(r.element): r.verdict for r in mixed.rows}
    assert verdicts["{a,b}"] is Verdict.EXACT_MATCH
    assert verdicts["{c}"] is Verdict.EXACT_MATCH
    assert verdicts["{a}"] is Verdict.COMPATIBLE
    assert verdicts["{b}"] is Verdict.COMPATIBLE


def test_quasi_sweep_c_cell_pattern():
    # The forced-equality cell {c} matches exactly iff x=0 or y=1; at y=0
    # with x>0 the constraint system is contradictory instead.
    result = sweep(Family.QUASI_X_XBAR_Y, 4, xbar_slices=[F(1, 2)])
    frame = make_frame(["a", "b", "c"])
    c = subset(frame, ["c"])
    for p in result.points:
        verdict = next(r.verdict for r in p.rows if r.element == c)
        if p.x == 0 or p.y == 1:
            assert verdict is Verdict.EXACT_MATCH
        elif p.y == 0:
            assert verdict is Verdict.INFEASIBLE
        else:
            assert verdict is not Verdict.EXACT_MATCH


def test_quasi_sweep_y_zero_with_positive_x_is_infeasible():
    result = sweep(Family.QUASI_X_XBAR_Y, 2, xbar_slices=[F(1, 2)])
    point = next(p for p in result.points if p.x == F(1, 2) and p.y == 0)
    assert not point.total_conflict
    assert all(r.verdict is Verdict.INFEASIBLE for r in point.rows)


def _closed_form_bounds(x, xbar, y):
    """[min, max] of P(S) over the quasi family's polytope, by hand, for the
    sets the family names; None where the polytope is empty.

    B forces P(c) = 1-y and P(a) + P(b) = y, and A forces x <= P(a) <= 1-xbar,
    so the polytope is empty iff x > y.  The partition family is the slice
    xbar = 1-x.
    """
    if x > y:
        return None
    a, b, c, ab, bc = (
        subset(sweeps.family_frame(), members)
        for members in (["a"], ["b"], ["c"], ["a", "b"], ["b", "c"])
    )
    return {
        a: (x, min(y, 1 - xbar)),
        b: (max(F(0), y + xbar - 1), y - x),
        c: (1 - y, 1 - y),
        ab: (y, y),
        bc: (1 - min(y, 1 - xbar), 1 - x),
    }


@pytest.mark.parametrize(
    "family, grid, options",
    [
        (Family.PARTITION_XY, 4, {}),
        (Family.PARTITION_XY, 12, {}),
        (Family.QUASI_X_XBAR_Y, 2, {}),
        (Family.QUASI_X_XBAR_Y, 12, {}),
        (Family.QUASI_X_XBAR_Y, 8, {"full_3d": True}),
    ],
)
def test_sweep_probability_intervals_match_the_closed_forms(family, grid, options):
    infeasible = 0
    for p in sweep(family, grid, **options).points:
        if p.total_conflict:
            continue
        forms = _closed_form_bounds(p.x, 1 - p.x if p.xbar is None else p.xbar, p.y)
        infeasible += forms is None
        for r in p.rows:
            if forms is None:
                assert not r.prob.feasible, (p.x, p.xbar, p.y, r.element)
            else:
                assert (r.prob.lower, r.prob.upper) == forms[r.element], (p.x, p.xbar, p.y)
    # Every grid has points with x > y.
    assert infeasible


def test_closed_form_of_the_bc_cell_matches_the_lp():
    # No combined focal set is {b,c}, so no sweep row checks its form.
    bc = subset(sweeps.family_frame(), ["b", "c"])
    for x, xbar, y in itertools.product([F(i, 8) for i in range(9)], repeat=3):
        if x + xbar > 1:
            continue
        forms = _closed_form_bounds(x, xbar, y)
        system = build_constraints(list(instantiate(quasi_spec(x, xbar, y))))
        interval = probability_bounds(system, bc)
        if forms is None:
            assert not interval.feasible
        else:
            assert (interval.lower, interval.upper) == forms[bc], (x, xbar, y)


def _closed_form_verdicts(x, xbar, y):
    """The verdicts on {a}, {b} and {c} with no LP: the DS side from the
    combined masses' closed form, the probability side from the intervals'
    closed form."""
    frame = sweeps.family_frame()
    masses = closed_form_masses(quasi_spec(x, xbar, y))
    tag = classify(make_body(frame, masses.items()))
    forms = _closed_form_bounds(x, xbar, y)
    verdicts = []
    for s in (subset(frame, [e]) for e in "abc"):
        bel = sum([m for c, m in masses.items() if not c.bits & ~s.bits], F(0))
        pl = sum([m for c, m in masses.items() if c.bits & s.bits], F(0))
        prob = ProbabilityInterval(s, *(forms[s] if forms else (None, None)))
        verdicts.append(_verdict(bel, pl, prob, tag))
    return verdicts


def test_partition_family_is_consistent_iff_kappa_is_zero_by_closed_forms():
    # The paper's finding on the N=60 grid with no LP.  Conflict is A's {a}
    # against B's {c}, so kappa = x(1-y).
    grid = [F(i, 60) for i in range(61)]
    checked = 0
    for x, y in itertools.product(grid, repeat=2):
        if (x, y) == (1, 0):
            continue  # total conflict: nothing to combine
        verdicts = _closed_form_verdicts(x, 1 - x, y)
        exact = all(v is Verdict.EXACT_MATCH for v in verdicts)
        assert exact == (x * (1 - y) == 0) == (x == 0 or y == 1), (x, y, verdicts)
        checked += 1
    assert checked == 61 * 61 - 1


def test_quasi_family_c_verdict_by_closed_forms():
    # The quasi family's verdict on {c} over the full 3-D N=24 grid with no
    # LP.  Both sides are points there: B pins P(c) = 1-y, and no combined
    # focal set but {c} meets c.  So the verdict is Infeasible off the
    # polytope (x > y) and otherwise ExactMatch exactly where the balance
    # equation holds.
    grid = [F(i, 24) for i in range(25)]
    checked = 0
    for x, xbar, y in itertools.product(grid, repeat=3):
        if x + xbar > 1 or (x, y) == (1, 0):
            continue  # off the family, or total conflict
        verdict = _closed_form_verdicts(x, xbar, y)[2]
        if x > y:
            assert verdict is Verdict.INFEASIBLE, (x, xbar, y)
        elif x == 0 or y == 1:
            assert verdict is Verdict.EXACT_MATCH, (x, xbar, y)
        else:
            assert verdict is Verdict.VIOLATION, (x, xbar, y, verdict)
        if x <= y:
            assert (verdict is Verdict.EXACT_MATCH) == quasi_balance_equation_holds(x, y)
        checked += 1
    assert checked == 25 * 26 // 2 * 25 - 1


def test_zero_conflict_points_never_verdict_disjoint():
    partition = sweep(Family.PARTITION_XY, 4)
    quasi = sweep(Family.QUASI_X_XBAR_Y, 4, xbar_slices=[F(0), F(1, 2)])
    for result in (partition, quasi):
        for p in result.points:
            if p.kappa == 0:
                assert all(
                    r.verdict is not Verdict.DISJOINT_VIOLATION for r in p.rows
                ), (p.x, p.xbar, p.y)


def test_sweep_rejects_bad_input():
    with pytest.raises(ValueError):
        sweep(Family.PARTITION_XY, 1)
    with pytest.raises(ValueError, match="mass must be a Fraction, int, or string"):
        sweep(Family.QUASI_X_XBAR_Y, 2, xbar_slices=[0.1])


def test_sweep_refuses_a_negative_xbar_slice_before_any_audit(monkeypatch):
    def no_audit(*args, **kwargs):
        raise AssertionError("an audit ran for a negative xbar slice")

    monkeypatch.setattr(sweeps, "audit", no_audit)
    with pytest.raises(ValueError, match="xbar slice -1/2 is negative"):
        sweep(Family.QUASI_X_XBAR_Y, 12, xbar_slices=(0, F(-1, 2)))


@pytest.mark.parametrize(
    "family, options",
    [(Family.PARTITION_XY, {}), (Family.QUASI_X_XBAR_Y, {"full_3d": True})],
    ids=["partition", "quasi-full-3d"],
)
def test_sweep_refuses_a_negative_xbar_slice_where_slices_are_unused(monkeypatch, family, options):
    def no_audit(*args, **kwargs):
        raise AssertionError("an audit ran for a negative xbar slice")

    monkeypatch.setattr(sweeps, "audit", no_audit)
    with pytest.raises(ValueError, match="xbar slice -1/2 is negative"):
        sweep(family, 2, xbar_slices=[F(-1, 2)], **options)


def test_sweep_refuses_a_density_at_the_point_limit_before_any_audit(monkeypatch):
    # No x is admissible on the slice xbar = 2, so the sweep would have no
    # point; the density alone is refused, before the grid is built.
    def no_audit(*args, **kwargs):
        raise AssertionError("an audit ran above the sweep point limit")

    monkeypatch.setattr(sweeps, "audit", no_audit)
    with pytest.raises(ValueError, match=f"the limit is {sweeps.MAX_SWEEP_POINTS}"):
        sweep(Family.QUASI_X_XBAR_Y, sweeps.MAX_SWEEP_POINTS, xbar_slices=[2])


@pytest.mark.parametrize(
    "family, grid, options",
    [
        (Family.PARTITION_XY, 3, {}),
        (Family.QUASI_X_XBAR_Y, 4, {"xbar_slices": [F(0), F(1, 3), F(1, 2), F(1), F(3, 2)]}),
        (Family.QUASI_X_XBAR_Y, 3, {"full_3d": True}),
    ],
)
def test_sweep_point_limit_counts_the_points_exactly(monkeypatch, family, grid, options):
    # The limit is checked on a count made before the sweep; at the sweep's
    # own point count it passes and one below it refuses.
    points = len(sweep(family, grid, **options).points)
    monkeypatch.setattr(sweeps, "MAX_SWEEP_POINTS", points)
    assert len(sweep(family, grid, **options).points) == points
    monkeypatch.setattr(sweeps, "MAX_SWEEP_POINTS", points - 1)
    with pytest.raises(ValueError, match=f"has {points} grid points"):
        sweep(family, grid, **options)


def test_sweep_csv_deterministic_and_well_formed():
    result = sweep(Family.PARTITION_XY, 2)
    text1 = sweep_to_csv(result)
    text2 = sweep_to_csv(sweep(Family.PARTITION_XY, 2))
    assert text1 == text2
    lines = text1.splitlines()
    assert lines[0] == "family,x,xbar,y,kappa,element,ds_lo,ds_hi,p_lo,p_hi,verdict"
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert len(data) == 9 * 3
    assert any(ln.startswith("# consistent points") for ln in lines)
    # exact fraction strings only, never floats
    assert "." not in text1.replace("...", "")


SWEEP_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "sweep_digests.json").read_text(encoding="utf-8")
)
FAMILY_NAMES = {"partition-xy": Family.PARTITION_XY, "quasi-x-xbar-y": Family.QUASI_X_XBAR_Y}


@pytest.mark.parametrize("case", SWEEP_DIGESTS, ids=lambda c: c["name"])
def test_sweep_csv_bytes_are_pinned(case):
    # Four sweeps' CSV output, pinned byte for byte against the recorded SHA-256.
    options = {}
    if "full_3d" in case:
        options["full_3d"] = case["full_3d"]
    if "xbar_slices" in case:
        options["xbar_slices"] = [F(s) for s in case["xbar_slices"]]
    text = sweep_to_csv(sweep(FAMILY_NAMES[case["family"]], case["grid"], **options))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == case["sha256"]


def test_zadeh_fixture_report():
    report = zadeh_fixture()
    frame = report.combined.frame
    assert report.combined.mass_of(subset(frame, ["c"])) == 1
    assert report.kappa == F(9999, 10000)
    assert not report.feasible
    assert all(f.verdict is Verdict.INFEASIBLE for f in report.findings)
