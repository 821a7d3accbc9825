"""Built-in reproduction checks for the paper's fixed cases.

This module is the one home of the three fixed cases: the partition and
quasi-partition cases (one point of each ``sweeps`` family) and Zadeh's
near-contradictory pair.  Each check compares a frozen expected value with
what the case's one audit returned, so the `paper-repro` command needs no
external files and fails loudly if any behavior drifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .consistency import ConsistencyReport, audit
from .evidence import make_body
from .frames import subset
from .sweeps import (
    Family,
    FamilySpec,
    closed_form_masses,
    family_frame,
    instantiate,
    quasi_balance_equation_holds,
    sweep,
)


@dataclass(frozen=True)
class CheckResult:
    label: str
    expected: str
    actual: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def zadeh_fixture() -> ConsistencyReport:
    """The classic near-contradictory pair: almost all mass on different
    singletons, a sliver of agreement on a third.

    Combination concentrates everything on the sliver ({c} gets mass 1 with
    kappa = 9999/10000); the probability constraint system derived from the
    same two bodies is infeasible.  `paper-repro` checks both facts.
    """
    frame = family_frame()
    a, b, c = (subset(frame, [label]) for label in ("a", "b", "c"))
    first = make_body(frame, [(a, Fraction(99, 100)), (c, Fraction(1, 100))])
    second = make_body(frame, [(b, Fraction(99, 100)), (c, Fraction(1, 100))])
    return audit([first, second])


def run_reproduction() -> list[CheckResult]:
    """Run every built-in fixture; returns one result per check."""
    # Partition case: masses {1/4, 3/4} on ({a},{b,c}) vs {1/2, 1/2} on
    # ({a,b},{c}).  Combined masses 1/7, 3/7, 3/7 with kappa 1/8; the derived
    # probabilities are the incompatible points 1/4, 1/4, 1/2.
    spec = FamilySpec(Fraction(1, 4), None, Fraction(1, 2))
    report = audit(list(instantiate(spec)))
    masses = {str(s): m for s, m in report.combined.focal}
    findings = {str(f.subset): f for f in report.findings}
    partition = [
        ("{a}", "1/7", "[1/4, 1/4]"),
        ("{b}", "3/7", "[1/4, 1/4]"),
        ("{c}", "3/7", "[1/2, 1/2]"),
    ]
    checks: list[tuple[str, object, object]] = [("partition-case kappa", "1/8", report.kappa)]
    for name, want, _ in partition:
        f, m = findings[name], masses.get(name, 0)
        checks += [
            (f"partition-case mass {name}", want, m),
            (f"partition-case mass=bel=pl on {name}", True, f.ds_lower == f.ds_upper == m),
        ]
    for name, _, want in partition:
        f = findings[name]
        checks += [
            (f"partition-case P({name})", want, f"[{f.prob.lower}, {f.prob.upper}]"),
            (f"partition-case verdict {name}", "Violation", f.verdict.value),
        ]
    # Same case via the parametric family's closed forms.
    checks.append(
        (
            "partition-family closed forms at (1/4, 1/2)",
            {name: str(m) for name, m in masses.items()},
            {str(s): str(m) for s, m in closed_form_masses(spec).items()},
        )
    )

    # Quasi-partition case at x=1/4, xbar=1/2, y=1/2: the DS interval for {b}
    # and the probability interval for {b} do not even overlap.
    q_spec = FamilySpec(Fraction(1, 4), Fraction(1, 2), Fraction(1, 2))
    q_report = audit(list(instantiate(q_spec)))
    q_masses = {str(s): m for s, m in q_report.combined.focal}
    for name, want in [("{a}", "1/7"), ("{b}", "2/7"), ("{c}", "3/7"), ("{a,b}", "1/7")]:
        checks.append((f"quasi-case mass {name}", want, q_masses.get(name, 0)))
    b = next(f for f in q_report.findings if str(f.subset) == "{b}")
    low, high = b.prob.lower, b.prob.upper
    checks += [
        ("quasi-case DS interval for {b}", "[2/7, 3/7]", f"[{b.ds_lower}, {b.ds_upper}]"),
        ("quasi-case probability interval for {b}", "[0, 1/4]", f"[{low}, {high}]"),
        ("quasi-case verdict {b}", "DisjointViolation", b.verdict.value),
        ("quasi-case intervals disjoint", True, high is not None and high < b.ds_lower),
        (
            "quasi-family closed forms at (1/4, 1/2, 1/2)",
            {name: str(m) for name, m in q_masses.items()},
            {str(s): str(m) for s, m in closed_form_masses(q_spec).items()},
        ),
    ]

    # Near-contradictory pair: combination puts everything on the sliver of
    # agreement, while the probability system admits no distribution at all.
    z_report = zadeh_fixture()
    checks += [
        ("zadeh combined body", "{c}:1", z_report.combined),
        ("zadeh kappa", "9999/10000", z_report.kappa),
        ("zadeh probability system infeasible", True, not z_report.feasible),
    ]

    # Consistency region of the partition family on a coarse grid: exactly
    # the x=0 row and y=1 column, which is exactly the kappa=0 set.  Sweep
    # points and the grid below are both in ascending (x, y) order.
    region = "(0,0) (0,1/4) (0,1/2) (0,3/4) (0,1) (1/4,1) (1/2,1) (3/4,1) (1,1)"
    result = sweep(Family.PARTITION_XY, 4)
    zero_conflict = [p for p in result.points if p.kappa == 0]
    for label, points in [
        ("partition-family consistent set (N=4)", result.consistent),
        ("partition-family consistency = zero conflict", zero_conflict),
    ]:
        checks.append((label, region, " ".join(f"({p.x},{p.y})" for p in points)))

    # Forced-equality region of the quasi family: x=0, y=0, or y=1.
    grid = [Fraction(i, 4) for i in range(5)]
    exceptions = " ".join(
        f"({x},{y})"
        for x in grid
        for y in grid
        if (held := quasi_balance_equation_holds(x, y)) is not None
        and held != (x == 0 or y == 0 or y == 1)
    )
    checks.append(
        (
            "quasi-family balance equality region (N=4)",
            "no exceptions",
            exceptions or "no exceptions",
        )
    )
    return [CheckResult(label, str(want), str(got)) for label, want, got in checks]
