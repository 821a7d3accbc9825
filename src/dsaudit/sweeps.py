"""Parametric two-body families, exact grid sweeps, and classic fixtures.

Both built-in families live over the frame {a, b, c} and share B:

* quasi-x-xbar-y: A = {{a}: x, {b,c}: xbar, omega: 1-x-xbar},
  B = {{a,b}: y, {c}: 1-y}.  The forced equality on the {c} cell,
  1-y = (1-x)(1-y)/(1-x(1-y)), holds exactly when x = 0, y = 0, or y = 1.
* partition-xy is the xbar = 1-x slice of quasi-x-xbar-y, where no mass is
  left on omega: A = {{a}: x, {b,c}: 1-x}.  Combination is consistent with
  the derived probabilities exactly when x = 0 or y = 1, equivalently
  kappa = 0.

Grid points are exact rationals i/N, so both characterizations are decidable
equalities at every point.
"""

from __future__ import annotations

import csv
import io
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
from .evidence import BodyOfEvidence, as_mass, make_body
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

# The families' frame and the cells they name, built once.
_FRAME = make_frame(["a", "b", "c"])
_A, _B, _C, _AB, _BC = (
    subset(_FRAME, members) for members in (["a"], ["b"], ["c"], ["a", "b"], ["b", "c"])
)
_OMEGA = _FRAME.universe()


def family_frame():
    return _FRAME


@dataclass(frozen=True)
class FamilySpec:
    """A point in one of the parametric families; xbar is None for partition-xy."""

    x: Fraction
    xbar: Fraction | None
    y: Fraction

    def __post_init__(self) -> None:
        x, bc, y = self.x, self.bc_mass, self.y
        if x < 0 or bc < 0 or x + bc > 1 or not 0 <= y <= 1:
            raise ValueError(
                f"need x, xbar >= 0, x + xbar <= 1 and y in [0, 1], got x={x}, xbar={bc}, y={y}"
            )

    @property
    def bc_mass(self) -> Fraction:
        """The mass A puts on {b,c}: xbar, or 1 - x on the partition slice."""
        return 1 - self.x if self.xbar is None else self.xbar


def partition_spec(x: Fraction, y: Fraction) -> FamilySpec:
    """A partition-xy point; each parameter is read by ``as_mass``."""
    return FamilySpec(as_mass(x), None, as_mass(y))


def quasi_spec(x: Fraction, xbar: Fraction, y: Fraction) -> FamilySpec:
    """A quasi-x-xbar-y point; each parameter is read by ``as_mass``."""
    return FamilySpec(as_mass(x), as_mass(xbar), as_mass(y))


def instantiate(spec: FamilySpec) -> tuple[BodyOfEvidence, BodyOfEvidence]:
    """The two bodies at the spec's parameter point; zero masses drop out."""
    x, bc, y = spec.x, spec.bc_mass, spec.y
    body_a = make_body(_FRAME, [(_A, x), (_BC, bc), (_OMEGA, 1 - x - bc)])
    body_b = make_body(_FRAME, [(_AB, y), (_C, 1 - y)])
    return body_a, body_b


def closed_form_masses(spec: FamilySpec) -> dict[FocalSet, Fraction]:
    """Closed-form combined masses at the parameter point (nonzero only).

    Raises TotalConflictError where the family degenerates (x=1, y=0).
    """
    x, bc, y = spec.x, spec.bc_mass, spec.y
    denom = 1 - x * (1 - y)
    if denom == 0:
        raise TotalConflictError("total conflict (kappa = 1) at x=1, y=0")
    cells = {
        _A: x * y / denom,
        _B: bc * y / denom,
        _C: (1 - x) * (1 - y) / denom,
        _AB: (1 - x - bc) * y / denom,
    }
    return {s: m for s, m in cells.items() if m != 0}


def quasi_balance_equation_holds(x: Fraction, y: Fraction) -> bool | None:
    """Whether 1-y equals the combined {c} mass (1-x)(1-y)/(1-x(1-y)) exactly.

    The {c} cell is the same for every xbar.  Returns None at the degenerate
    point x=1, y=0 where the right-hand side is undefined (kappa = 1).
    """
    try:
        forms = closed_form_masses(quasi_spec(x, Fraction(0), y))
    except TotalConflictError:
        return None
    return 1 - y == forms.get(_C, 0)


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
# count cubic in the grid density, so larger sweeps are refused up front.  A
# density of this many steps or more is refused first: any point brings a row
# of N+1.
MAX_SWEEP_POINTS = 20_000


def _evaluate_point(spec: FamilySpec) -> SweepPoint:
    try:
        report = audit(list(instantiate(spec)))
    except TotalConflictError:
        rows = tuple(SweepRow(s, None, None, None, None) for s in (_A, _B, _C))
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
    ``full_3d``) at the x values with x + xbar <= 1.  Points are visited in
    canonical grid order, so output is deterministic.  Each xbar slice is
    read by ``as_mass``, the package's mass parser.  Raises ValueError,
    before any audit, on a density below 2 or of MAX_SWEEP_POINTS or more
    (checked first, so nothing is built for it), an xbar slice that
    ``as_mass`` refuses (a float, say) or that is negative (in every mode,
    even where the slices are unused), or a sweep of more than
    MAX_SWEEP_POINTS points.
    """
    if grid_density < 2:
        raise ValueError("grid density must be at least 2")
    if grid_density >= MAX_SWEEP_POINTS:
        raise ValueError(
            f"grid density {grid_density} gives rows of {grid_density + 1} points;"
            f" the limit is {MAX_SWEEP_POINTS}"
        )
    xbar_slices = [as_mass(xbar) for xbar in xbar_slices]
    negative = next((xbar for xbar in xbar_slices if xbar < 0), None)
    if negative is not None:
        raise ValueError(f"xbar slice {negative} is negative")
    n = grid_density
    steps = [Fraction(i, n) for i in range(n + 1)]
    # One row (xbar, k) per slice: x = i/N is admissible while i <= N(1 - xbar),
    # so its x values are the first k steps.  The floor is taken in integers,
    # which keeps the count cheap even for the N+1 slices of a full 3-D grid.
    rows: list[tuple[Fraction | None, int]]
    if family is Family.PARTITION_XY:
        rows = [(None, n + 1)]
    else:
        rows = [
            (xbar, max(0, n * (xbar.denominator - xbar.numerator) // xbar.denominator + 1))
            for xbar in (steps if full_3d else xbar_slices)
        ]
    count = len(steps) * sum(k for _, k in rows)
    if count > MAX_SWEEP_POINTS:
        raise ValueError(
            f"the sweep has {count} grid points; the limit is {MAX_SWEEP_POINTS}"
        )
    points = [
        _evaluate_point(FamilySpec(x, xbar, y))
        for xbar, k in rows
        for x in steps[:k]
        for y in steps
    ]
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
    same two bodies is infeasible.  `paper-repro` checks both facts.
    """
    first = make_body(_FRAME, [(_A, Fraction(99, 100)), (_C, Fraction(1, 100))])
    second = make_body(_FRAME, [(_B, Fraction(99, 100)), (_C, Fraction(1, 100))])
    return audit([first, second])
