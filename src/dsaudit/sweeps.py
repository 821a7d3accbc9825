"""Parametric two-body families, exact grid sweeps, and classic fixtures.

Two families over the frame {a, b, c} are built in:

* partition-xy: A = {{a}: x, {b,c}: 1-x}, B = {{a,b}: y, {c}: 1-y}.
  Combination is consistent with the derived probabilities exactly when
  x = 0 or y = 1, equivalently kappa = 0.
* quasi-x-xbar-y: A = {{a}: x, {b,c}: xbar, omega: 1-x-xbar}, same B.
  The forced equality on the {c} cell, 1-y = (1-x)(1-y)/(1-x(1-y)), holds
  exactly when x = 0, y = 0, or y = 1.

Grid points are exact rationals i/N, so both characterizations are decidable
equalities at every point.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .combine import TotalConflictError
from .consistency import (
    ConsistencyReport,
    ProbabilityInterval,
    Verdict,
    audit,
)
from .evidence import BodyOfEvidence, make_body
from .frames import FocalSet, make_frame, subset


class Family(Enum):
    PARTITION_XY = "PartitionXY"
    QUASI_X_XBAR_Y = "QuasiXXbarY"


DEFAULT_XBAR_SLICES: tuple[Fraction, ...] = (
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(1),
)


def family_frame():
    return make_frame(["a", "b", "c"])


@dataclass(frozen=True)
class FamilySpec:
    """A point in one of the parametric families."""

    family: Family
    x: Fraction | None = None
    xbar: Fraction | None = None
    y: Fraction | None = None

    def __post_init__(self) -> None:
        if self.family is Family.PARTITION_XY:
            if self.x is None or self.y is None or self.xbar is not None:
                raise ValueError("partition-xy takes parameters x and y only")
            if not (0 <= self.x <= 1 and 0 <= self.y <= 1):
                raise ValueError(f"x={self.x}, y={self.y} outside [0, 1]")
        else:
            if self.x is None or self.xbar is None or self.y is None:
                raise ValueError("quasi-x-xbar-y takes parameters x, xbar, and y")
            if self.x < 0 or self.xbar < 0 or self.x + self.xbar > 1:
                raise ValueError(f"need x, xbar >= 0 and x + xbar <= 1, got {self.x}, {self.xbar}")
            if not 0 <= self.y <= 1:
                raise ValueError(f"y={self.y} outside [0, 1]")


def partition_spec(x: Fraction, y: Fraction) -> FamilySpec:
    return FamilySpec(Family.PARTITION_XY, x=Fraction(x), y=Fraction(y))


def quasi_spec(x: Fraction, xbar: Fraction, y: Fraction) -> FamilySpec:
    return FamilySpec(
        Family.QUASI_X_XBAR_Y, x=Fraction(x), xbar=Fraction(xbar), y=Fraction(y)
    )


def instantiate(spec: FamilySpec) -> tuple[BodyOfEvidence, BodyOfEvidence]:
    """The two bodies at the spec's parameter point; zero masses drop out."""
    frame = family_frame()
    a = subset(frame, ["a"])
    bc = subset(frame, ["b", "c"])
    ab = subset(frame, ["a", "b"])
    c = subset(frame, ["c"])
    omega = frame.universe()
    assert spec.x is not None and spec.y is not None
    if spec.family is Family.PARTITION_XY:
        body_a = make_body(frame, [(a, spec.x), (bc, 1 - spec.x)])
    else:
        assert spec.xbar is not None
        body_a = make_body(
            frame, [(a, spec.x), (bc, spec.xbar), (omega, 1 - spec.x - spec.xbar)]
        )
    body_b = make_body(frame, [(ab, spec.y), (c, 1 - spec.y)])
    return body_a, body_b


def closed_form_masses(spec: FamilySpec) -> dict[FocalSet, Fraction]:
    """Closed-form combined masses at the parameter point (nonzero only).

    Raises TotalConflictError where the family degenerates (x=1, y=0).
    """
    assert spec.x is not None and spec.y is not None
    x, y = spec.x, spec.y
    denom = 1 - x * (1 - y)
    if denom == 0:
        raise TotalConflictError("total conflict (kappa = 1) at x=1, y=0")
    frame = family_frame()
    if spec.family is Family.PARTITION_XY:
        cells = {
            subset(frame, ["a"]): x * y / denom,
            subset(frame, ["b"]): (1 - x) * y / denom,
            subset(frame, ["c"]): (1 - x) * (1 - y) / denom,
        }
    else:
        assert spec.xbar is not None
        xbar = spec.xbar
        cells = {
            subset(frame, ["a"]): x * y / denom,
            subset(frame, ["b"]): xbar * y / denom,
            subset(frame, ["c"]): (1 - x) * (1 - y) / denom,
            subset(frame, ["a", "b"]): (1 - x - xbar) * y / denom,
        }
    return {s: m for s, m in cells.items() if m != 0}


def quasi_balance_equation_holds(x: Fraction, y: Fraction) -> bool | None:
    """Whether 1-y equals (1-x)(1-y)/(1-x(1-y)) exactly.

    Returns None at the degenerate point x=1, y=0 where the right-hand side
    is undefined (kappa = 1).
    """
    denom = 1 - x * (1 - y)
    if denom == 0:
        return None
    return 1 - y == (1 - x) * (1 - y) / denom


@dataclass(frozen=True)
class SweepRow:
    element: FocalSet
    ds_lower: Fraction | None
    ds_upper: Fraction | None
    prob: ProbabilityInterval | None
    verdict: Verdict | None  # None marks a total-conflict grid point


@dataclass(frozen=True)
class SweepPoint:
    x: Fraction
    xbar: Fraction | None
    y: Fraction
    kappa: Fraction
    rows: tuple[SweepRow, ...]

    @property
    def total_conflict(self) -> bool:
        return self.kappa == 1

    def all_exact(self) -> bool:
        return not self.total_conflict and all(
            r.verdict is Verdict.EXACT_MATCH for r in self.rows
        )


@dataclass(frozen=True)
class SweepResult:
    family: Family
    points: tuple[SweepPoint, ...]

    @property
    def consistent(self) -> tuple[SweepPoint, ...]:
        """The points where every verdict is ExactMatch."""
        return tuple(p for p in self.points if p.all_exact())


# Every grid point is one audit, and `full_3d` makes the quasi family's point
# count cubic in the grid density, so larger sweeps are refused up front.
MAX_SWEEP_POINTS = 20_000


def _grid_points(
    family: Family, n: int, xbar_slices: Sequence[Fraction], full_3d: bool
) -> int:
    """How many points ``sweep`` audits, counted without building the grid."""
    side = n + 1
    if family is Family.PARTITION_XY:
        return side * side
    if full_3d:
        # xbar = j/n and x = i/n with i + j <= n
        return side * side * (side + 1) // 2
    # x = i/n with i <= n * (1 - xbar), for i in 0..n
    return side * sum(
        min(side, max(0, math.floor(n * (1 - Fraction(xbar))) + 1))
        for xbar in xbar_slices
    )


def _grid(n: int) -> list[Fraction]:
    return [Fraction(i, n) for i in range(n + 1)]


def _evaluate_point(spec: FamilySpec) -> SweepPoint:
    frame = family_frame()
    singletons = [FocalSet(frame, 1 << i) for i in range(frame.size)]
    assert spec.x is not None and spec.y is not None
    try:
        report = audit(list(instantiate(spec)))
    except TotalConflictError:
        rows = tuple(SweepRow(s, None, None, None, None) for s in singletons)
        return SweepPoint(spec.x, spec.xbar, spec.y, Fraction(1), rows)
    rows = tuple(
        SweepRow(f.subset, f.ds_lower, f.ds_upper, f.prob, f.verdict)
        for f in report.findings
    )
    return SweepPoint(spec.x, spec.xbar, spec.y, report.kappa, rows)


def sweep(
    family: Family,
    grid_density: int,
    xbar_slices: Sequence[Fraction] = DEFAULT_XBAR_SLICES,
    full_3d: bool = False,
) -> SweepResult:
    """Audit every grid point i/N of the family's parameter space.

    The quasi family is swept per xbar slice (or over the full 3-D grid when
    ``full_3d``); points violating x + xbar <= 1 are skipped.  Points are
    visited in canonical grid order, so output is deterministic.  Raises
    ValueError, before any audit, on a density below 2 or a sweep of more
    than MAX_SWEEP_POINTS points.
    """
    if grid_density < 2:
        raise ValueError("grid density must be at least 2")
    count = _grid_points(family, grid_density, xbar_slices, full_3d)
    if count > MAX_SWEEP_POINTS:
        raise ValueError(
            f"the sweep has {count} grid points; the limit is {MAX_SWEEP_POINTS}"
        )
    steps = _grid(grid_density)
    points: list[SweepPoint] = []
    if family is Family.PARTITION_XY:
        for x in steps:
            for y in steps:
                points.append(_evaluate_point(partition_spec(x, y)))
    else:
        slices = steps if full_3d else [Fraction(s) for s in xbar_slices]
        for xbar in slices:
            for x in steps:
                if x + xbar > 1:
                    continue
                for y in steps:
                    points.append(_evaluate_point(quasi_spec(x, xbar, y)))
    return SweepResult(family, tuple(points))


def _frac(value: Fraction | None) -> str:
    return "" if value is None else str(value)


def sweep_to_csv(result: SweepResult) -> str:
    """Render a sweep as CSV with one row per grid point and element.

    Columns: family, x, xbar, y, kappa, element, ds_lo, ds_hi, p_lo, p_hi,
    verdict.  All numbers are exact fraction strings; a footer of comment
    lines lists the all-ExactMatch points.  Output is byte-deterministic.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["family", "x", "xbar", "y", "kappa", "element",
         "ds_lo", "ds_hi", "p_lo", "p_hi", "verdict"]
    )
    for point in result.points:
        for row in point.rows:
            prob = row.prob
            writer.writerow(
                [
                    result.family.value,
                    str(point.x),
                    _frac(point.xbar),
                    str(point.y),
                    str(point.kappa),
                    str(row.element),
                    _frac(row.ds_lower),
                    _frac(row.ds_upper),
                    _frac(prob.lower) if prob is not None else "",
                    _frac(prob.upper) if prob is not None else "",
                    row.verdict.value if row.verdict is not None else "TotalConflict",
                ]
            )
    buf.write("# consistent points (all verdicts ExactMatch):\n")
    for point in result.consistent:
        coords = f"x={point.x}"
        if point.xbar is not None:
            coords += f",xbar={point.xbar}"
        coords += f",y={point.y}"
        buf.write(f"# {coords}\n")
    return buf.getvalue()


def zadeh_fixture() -> ConsistencyReport:
    """The classic near-contradictory pair: almost all mass on different
    singletons, a sliver of agreement on a third.

    Combination concentrates everything on the sliver ({c} gets mass 1 with
    kappa = 9999/10000); the probability constraint system derived from the
    same two bodies is infeasible.  Both facts are asserted here.
    """
    frame = family_frame()
    first = make_body(
        frame,
        [(subset(frame, ["a"]), Fraction(99, 100)), (subset(frame, ["c"]), Fraction(1, 100))],
    )
    second = make_body(
        frame,
        [(subset(frame, ["b"]), Fraction(99, 100)), (subset(frame, ["c"]), Fraction(1, 100))],
    )
    report = audit([first, second])
    expected = make_body(frame, [(subset(frame, ["c"]), Fraction(1))])
    if report.combined != expected:
        raise AssertionError(f"expected combined body {{c}}:1, got {report.combined}")
    if report.kappa != Fraction(9999, 10000):
        raise AssertionError(f"expected kappa 9999/10000, got {report.kappa}")
    return report
