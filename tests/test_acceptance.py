"""Acceptance suite: one test per criterion, exact equality throughout.

Every numeric comparison is exact rational equality (tolerance zero).  Each
test prints a PASS line on success; run with ``pytest -s`` to see them.
Stated runtime budgets are asserted with a wall clock.
"""

import random
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings

from dsaudit import (
    Family,
    Verdict,
    audit,
    belief,
    build_constraints,
    combine,
    make_body,
    make_frame,
    mass_from_belief,
    measure_table,
    plausibility,
    probability_bounds,
    subset,
    sweep,
    vacuous,
)
from dsaudit.cli import main as cli_main
from dsaudit.measures import MeasureKind
from dsaudit.frames import FocalSet, enumerate_subsets
from dsaudit.repro import zadeh_fixture
from dsaudit.sweeps import quasi_balance_equation_holds
from lp_oracle import element_bounds_by_vertex_enumeration, two_sided_system
from strategies import bodies, body_pairs, disjoint_support_pairs, partition_bodies

F = Fraction


def _announce(label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: PASS{suffix}")


@pytest.fixture
def abc():
    return make_frame(["a", "b", "c"])


def test_criterion_1_partition_case_reproduction(abc):
    start = time.perf_counter()
    a = make_body(abc, [(subset(abc, ["a"]), "1/4"), (subset(abc, ["b", "c"]), "3/4")])
    b = make_body(abc, [(subset(abc, ["a", "b"]), "1/2"), (subset(abc, ["c"]), "1/2")])
    result = combine(a, b)
    assert result.kappa == F(1, 8)
    assert {str(s): m for s, m in result.combined.focal} == {
        "{a}": F(1, 7),
        "{b}": F(3, 7),
        "{c}": F(3, 7),
    }
    system = build_constraints([a, b])
    points = {"{a}": F(1, 4), "{b}": F(1, 4), "{c}": F(1, 2)}
    for label, want in points.items():
        interval = probability_bounds(system, subset(abc, [label.strip("{}")]))
        assert (interval.lower, interval.upper) == (want, want)
    report = audit([a, b])
    assert len(report.findings) == 3
    assert all(f.verdict is Verdict.VIOLATION for f in report.findings)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce("1 partition-case reproduction", f"{elapsed:.2f}s")


def test_criterion_2_quasi_case_reproduction(abc):
    start = time.perf_counter()
    a = make_body(
        abc,
        [
            (subset(abc, ["a"]), "1/4"),
            (subset(abc, ["b", "c"]), "1/2"),
            (abc.universe(), "1/4"),
        ],
    )
    b = make_body(abc, [(subset(abc, ["a", "b"]), "1/2"), (subset(abc, ["c"]), "1/2")])
    result = combine(a, b)
    assert {str(s): m for s, m in result.combined.focal} == {
        "{a}": F(1, 7),
        "{b}": F(2, 7),
        "{c}": F(3, 7),
        "{a,b}": F(1, 7),
    }
    sb = subset(abc, ["b"])
    assert belief(result.combined, sb) == F(2, 7)
    assert plausibility(result.combined, sb) == F(3, 7)
    report = audit([a, b])
    finding = next(f for f in report.findings if f.subset == sb)
    assert (finding.ds_lower, finding.ds_upper) == (F(2, 7), F(3, 7))
    assert (finding.prob.lower, finding.prob.upper) == (F(0), F(1, 4))
    assert finding.verdict is Verdict.DISJOINT_VIOLATION
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce("2 quasi-case reproduction", f"{elapsed:.2f}s")


def test_criterion_3_zadeh_fixture():
    start = time.perf_counter()
    report = zadeh_fixture()
    frame = report.combined.frame
    assert report.combined.focal == ((subset(frame, ["c"]), F(1)),)
    assert report.kappa == F(9999, 10000)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce("3 near-contradiction fixture", f"{elapsed:.2f}s")


def test_criterion_4_partition_family_iff_on_grid():
    start = time.perf_counter()
    result = sweep(Family.PARTITION_XY, 12)
    assert len(result.points) == 13 * 13
    consistent = {(p.x, p.y) for p in result.consistent}
    expected = {(F(0), F(j, 12)) for j in range(13)} | {
        (F(i, 12), F(1)) for i in range(13)
    }
    assert consistent == expected
    kappa_zero = {(p.x, p.y) for p in result.points if p.kappa == 0}
    assert kappa_zero == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _announce("4 partition-family consistency iff", f"{elapsed:.1f}s, {len(consistent)} points")


def test_criterion_5_quasi_family_iff_on_grid():
    start = time.perf_counter()
    slices = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    grid = [F(i, 12) for i in range(13)]
    checked = 0
    for xbar in slices:
        for x in grid:
            if x + xbar > 1:
                continue
            for y in grid:
                held = quasi_balance_equation_holds(x, y)
                if held is None:
                    assert x == 1 and y == 0
                    continue
                assert held == (x == 0 or y == 0 or y == 1), (x, xbar, y)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _announce("5 quasi-family forced-equality iff", f"{elapsed:.1f}s, {checked} points")


@settings(max_examples=200, deadline=None)
@given(bodies())
def test_criterion_6a_mass_belief_round_trip(body):
    assert mass_from_belief(measure_table(body, MeasureKind.BELIEF)) == body


@settings(max_examples=200, deadline=None)
@given(bodies())
def test_criterion_6b_duality(body):
    full = body.frame.universe().bits
    for s in enumerate_subsets(body.frame):
        assert plausibility(body, s) == 1 - belief(body, FocalSet(body.frame, s.bits ^ full))


@settings(max_examples=200, deadline=None)
@given(bodies())
def test_criterion_6c_ordering_and_endpoints(body):
    for s in enumerate_subsets(body.frame):
        assert belief(body, s) <= plausibility(body, s)
    assert belief(body, body.frame.empty()) == 0
    assert belief(body, body.frame.universe()) == 1


@settings(max_examples=200, deadline=None)
@given(body_pairs())
def test_criterion_6d_combination_properties(pair):
    from dsaudit import TotalConflictError, conflict

    a, b = pair
    kappa = conflict(a, b)
    disjoint = all(s.bits & t.bits == 0 for s in a.focal_sets() for t in b.focal_sets())
    assert (kappa == 1) == disjoint
    if kappa == 1:
        with pytest.raises(TotalConflictError):
            combine(a, b)
        return
    left = combine(a, b)
    right = combine(b, a)
    assert left.combined == right.combined
    assert sum(m for _, m in left.combined.focal) == 1
    assert combine(a, vacuous(a.frame)).combined == a


@settings(max_examples=200, deadline=None)
@given(disjoint_support_pairs())
def test_criterion_6d_total_conflict_on_disjoint_supports(pair):
    from dsaudit import conflict

    assert conflict(*pair) == 1


@settings(max_examples=200, deadline=None)
@given(partition_bodies())
def test_criterion_6e_partition_measures_coincide(body):
    for s, m in body.focal:
        assert belief(body, s) == m == plausibility(body, s)


def test_criterion_6_announce():
    _announce("6 property suite", "5 properties x 200 random cases")


def _random_body(rng, frame):
    n_subsets = (1 << frame.size) - 1
    count = rng.randint(1, min(4, n_subsets))
    masks = rng.sample(range(1, n_subsets + 1), count)
    denominator = rng.randint(count, 64)
    cuts = sorted(rng.sample(range(1, denominator), count - 1))
    bounds = [0, *cuts, denominator]
    masses = [F(hi - lo, denominator) for lo, hi in zip(bounds, bounds[1:])]
    return make_body(frame, [(FocalSet(frame, m), w) for m, w in zip(masks, masses)])


def test_criterion_7_lp_oracle_equivalence():
    start = time.perf_counter()
    frame = make_frame(["a", "b", "c"])
    rng = random.Random(20260808)
    singletons = [FocalSet(frame, 1 << i) for i in range(3)]
    checked = 0
    infeasible = 0
    for _ in range(100):
        n_bodies = rng.randint(1, 2)
        bodies_ = [_random_body(rng, frame) for _ in range(n_bodies)]
        system = build_constraints(bodies_)
        # The belief rows alone state the polytope (the plausibility row of S
        # is the belief row of its complement) and keep the enumeration small.
        rows = [c for c in two_sided_system(bodies_) if c.sense != "<="]
        oracle = element_bounds_by_vertex_enumeration(rows, 3)
        for i, s in enumerate(singletons):
            interval = probability_bounds(system, s)
            if oracle is None:
                assert not interval.feasible
                infeasible += 1
            else:
                assert interval.feasible
                assert (interval.lower, interval.upper) == oracle[i]
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _announce(
        "7 LP oracle equivalence",
        f"{elapsed:.1f}s, {checked} bound pairs, {infeasible} infeasible agreed",
    )


def test_criterion_8_cli_contract(tmp_path):
    runner = CliRunner()
    repro = runner.invoke(cli_main, ["paper-repro"])
    assert repro.exit_code == 0

    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for out in (out1, out2):
        result = runner.invoke(
            cli_main, ["sweep", "partition-xy", "--grid", "4", "-o", str(out)]
        )
        assert result.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()

    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"frame": ["a", "b"], "bodies": {"A": ['
        '{"set": ["a"], "mass": "1/2"}, {"set": ["b"], "mass": "2/5"}]}}'
    )
    result = runner.invoke(cli_main, ["combine", "-i", str(bad), "A"])
    assert result.exit_code == 2
    _announce("8 CLI contract", "paper-repro 0, byte-identical sweeps, bad sum 2")
