"""Built-in reproduction checks for the published counterexamples.

Each check compares a frozen expected value against what the library computes
from scratch, so the `paper-repro` command needs no external files and fails
loudly if any behavior drifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combine import TotalConflictError
from .consistency import Verdict, audit
from .evidence import BodyOfEvidence
from .measures import belief, plausibility
from .sweeps import (
    _A,
    _AB,
    _B,
    _C,
    Family,
    FamilySpec,
    closed_form_masses,
    instantiate,
    quasi_balance_equation_holds,
    sweep,
    zadeh_fixture,
)


@dataclass(frozen=True)
class CheckResult:
    label: str
    expected: str
    actual: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def _check(label: str, expected: object, actual: object) -> CheckResult:
    return CheckResult(label, str(expected), str(actual))


def _closed_forms_check(label: str, spec: FamilySpec, combined: BodyOfEvidence) -> CheckResult:
    """The family's closed-form masses at ``spec`` against the combined body."""
    forms = sorted(closed_form_masses(spec).items(), key=lambda kv: kv[0].bits)
    return _check(
        label,
        {str(s): str(m) for s, m in combined.focal},
        {str(s): str(m) for s, m in forms},
    )


def run_reproduction() -> list[CheckResult]:
    """Run every built-in fixture; returns one result per check."""
    checks: list[CheckResult] = []

    # Partition case: masses {1/4, 3/4} on ({a},{b,c}) vs {1/2, 1/2} on
    # ({a,b},{c}).  Combined masses 1/7, 3/7, 3/7 with kappa 1/8; the derived
    # probabilities are the incompatible points 1/4, 1/4, 1/2.
    spec = FamilySpec(Fraction(1, 4), None, Fraction(1, 2))
    report = audit(list(instantiate(spec)))
    combined = report.combined
    checks.append(_check("partition-case kappa", Fraction(1, 8), report.kappa))
    for s, want in [(_A, Fraction(1, 7)), (_B, Fraction(3, 7)), (_C, Fraction(3, 7))]:
        checks.append(_check(f"partition-case mass {s}", want, combined.mass_of(s)))
        checks.append(
            _check(
                f"partition-case mass=bel=pl on {s}",
                True,
                combined.mass_of(s) == belief(combined, s) == plausibility(combined, s),
            )
        )
    prob_points = {_A: Fraction(1, 4), _B: Fraction(1, 4), _C: Fraction(1, 2)}
    for finding in report.findings:
        want = prob_points[finding.subset]
        checks.append(
            _check(
                f"partition-case P({finding.subset})",
                f"[{want}, {want}]",
                f"[{finding.prob.lower}, {finding.prob.upper}]",
            )
        )
        checks.append(
            _check(
                f"partition-case verdict {finding.subset}",
                Verdict.VIOLATION.value,
                finding.verdict.value,
            )
        )

    # Same case via the parametric family's closed forms.
    checks.append(
        _closed_forms_check("partition-family closed forms at (1/4, 1/2)", spec, combined)
    )

    # Quasi-partition case at x=1/4, xbar=1/2, y=1/2: the DS interval for {b}
    # and the probability interval for {b} do not even overlap.
    q_spec = FamilySpec(Fraction(1, 4), Fraction(1, 2), Fraction(1, 2))
    q_report = audit(list(instantiate(q_spec)))
    q_combined = q_report.combined
    for s, want in [
        (_A, Fraction(1, 7)),
        (_B, Fraction(2, 7)),
        (_C, Fraction(3, 7)),
        (_AB, Fraction(1, 7)),
    ]:
        checks.append(_check(f"quasi-case mass {s}", want, q_combined.mass_of(s)))
    checks.append(
        _check(
            "quasi-case DS interval for {b}",
            "[2/7, 3/7]",
            f"[{belief(q_combined, _B)}, {plausibility(q_combined, _B)}]",
        )
    )
    b_finding = next(f for f in q_report.findings if f.subset == _B)
    checks.append(
        _check(
            "quasi-case probability interval for {b}",
            "[0, 1/4]",
            f"[{b_finding.prob.lower}, {b_finding.prob.upper}]",
        )
    )
    checks.append(
        _check(
            "quasi-case verdict {b}",
            Verdict.DISJOINT_VIOLATION.value,
            b_finding.verdict.value,
        )
    )
    assert b_finding.prob.upper is not None
    checks.append(
        _check(
            "quasi-case intervals disjoint",
            True,
            b_finding.prob.upper < belief(q_combined, _B),
        )
    )
    checks.append(
        _closed_forms_check("quasi-family closed forms at (1/4, 1/2, 1/2)", q_spec, q_combined)
    )

    # Near-contradictory pair: combination puts everything on the sliver of
    # agreement, while the probability system admits no distribution at all.
    try:
        z_report = zadeh_fixture()
        checks.append(_check("zadeh combined body", "{c}:1", str(z_report.combined)))
        checks.append(_check("zadeh kappa", Fraction(9999, 10000), z_report.kappa))
        checks.append(_check("zadeh probability system infeasible", True, not z_report.feasible))
    except TotalConflictError as exc:
        checks.append(_check("zadeh fixture", "ok", f"failed: {exc}"))

    # Consistency region of the partition family on a coarse grid: exactly
    # the x=0 row and y=1 column, which is exactly the kappa=0 set.
    def fmt_points(pts: set[tuple[Fraction, Fraction]]) -> str:
        return " ".join(f"({x},{y})" for x, y in sorted(pts))

    result = sweep(Family.PARTITION_XY, 4)
    consistent = {(p.x, p.y) for p in result.consistent}
    expected_pts = {(Fraction(0), Fraction(i, 4)) for i in range(5)} | {
        (Fraction(i, 4), Fraction(1)) for i in range(5)
    }
    checks.append(
        _check("partition-family consistent set (N=4)", fmt_points(expected_pts), fmt_points(consistent))
    )
    kappa_zero = {(p.x, p.y) for p in result.points if p.kappa == 0}
    checks.append(
        _check("partition-family consistency = zero conflict", fmt_points(expected_pts), fmt_points(kappa_zero))
    )

    # Forced-equality region of the quasi family: x=0, y=0, or y=1.
    grid = [Fraction(i, 4) for i in range(5)]
    mismatches = {
        (x, y)
        for x in grid
        for y in grid
        if (held := quasi_balance_equation_holds(x, y)) is not None
        and held != (x == 0 or y == 0 or y == 1)
    }
    checks.append(
        _check("quasi-family balance equality region (N=4)", "no exceptions", fmt_points(mismatches) or "no exceptions")
    )
    return checks
