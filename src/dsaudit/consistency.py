"""Probability intervals implied by evidence, and audits against them.

Treating each input mass assignment as partial information about a single
probability distribution over the frame yields a linear constraint system:
the simplex constraints plus, per body and per subset, the lower bound given
by that body's belief.  No plausibility row is needed: with total mass 1,
P(S) <= pl(S) = 1 - bel(not S) is the belief row of the complement (Dempster
1967).  Exact LP over this polytope
gives a tight probability interval per target subset, which is then compared
with the [belief, plausibility] interval of the Dempster-combined body.
Simplex phase one runs once per system, when it is built; every target's
minimum and maximum start from that feasible basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Sequence

from . import lp
from .combine import CombinationResult, combine_many
from .evidence import BodyOfEvidence, StructureTag, classify
from .frames import FocalSet, Frame, enumerate_subsets, require_same_frame
from .measures import belief, plausibility


@dataclass(frozen=True)
class ProbabilityConstraintSystem:
    """Linear constraints on one unknown P(element) per frame element.

    `start` is the system's simplex phase one, computed on construction:
    None when no distribution satisfies the constraints.
    """

    frame: Frame
    constraints: tuple[lp.LinearConstraint, ...]
    start: lp.FeasibleStart | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        start = lp.phase_one(self.constraints, self.frame.size)
        object.__setattr__(self, "start", start)

    @property
    def feasible(self) -> bool:
        return self.start is not None


@dataclass(frozen=True)
class ProbabilityInterval:
    """Exact [lower, upper] bounds on P(subset); None bounds when infeasible."""

    subset: FocalSet
    lower: Fraction | None
    upper: Fraction | None
    feasible: bool


class Verdict(Enum):
    EXACT_MATCH = "ExactMatch"
    COMPATIBLE = "Compatible"
    VIOLATION = "Violation"
    DISJOINT_VIOLATION = "DisjointViolation"
    INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class ElementFinding:
    subset: FocalSet
    ds_lower: Fraction
    ds_upper: Fraction
    prob: ProbabilityInterval
    verdict: Verdict


@dataclass(frozen=True)
class ConsistencyReport:
    kappa: Fraction
    combined: BodyOfEvidence
    findings: tuple[ElementFinding, ...]
    feasible: bool
    combination: CombinationResult
    system: ProbabilityConstraintSystem

    def worst_exit_code(self) -> int:
        """0 all consistent, 4 any violation, 5 infeasible system."""
        if not self.feasible:
            return 5
        verdicts = {f.verdict for f in self.findings}
        if Verdict.VIOLATION in verdicts or Verdict.DISJOINT_VIOLATION in verdicts:
            return 4
        return 0


def _indicator(frame: Frame, s: FocalSet) -> tuple[Fraction, ...]:
    return tuple(
        Fraction(1) if s.bits >> i & 1 else Fraction(0) for i in range(frame.size)
    )


def build_constraints(
    bodies: Sequence[BodyOfEvidence], names: Sequence[str] | None = None
) -> ProbabilityConstraintSystem:
    """Constraint system over P(element) variables for the given bodies.

    Always contains the simplex constraints (non-negativity, total mass 1).
    Per body and per proper subset with positive belief, emits
    belief(S) <= P(S).  The upper bound P(S) <= plausibility(S) is the
    belief row of the complement under total mass 1, so it is not emitted
    again; a vacuous body contributes nothing.
    """
    if not bodies:
        raise ValueError("need at least one body")
    frame = bodies[0].frame
    for b in bodies[1:]:
        require_same_frame(frame, b.frame)
    if names is None:
        names = [f"body{i}" for i in range(len(bodies))]

    constraints: list[lp.LinearConstraint] = []
    one = Fraction(1)
    for i, label in enumerate(frame.elements):
        coeffs = tuple(
            one if j == i else Fraction(0) for j in range(frame.size)
        )
        constraints.append(
            lp.LinearConstraint(coeffs, lp.Sense.GE, Fraction(0), f"nonneg:P({label})")
        )
    constraints.append(
        lp.LinearConstraint(
            tuple(one for _ in range(frame.size)), lp.Sense.EQ, one, "total:1"
        )
    )

    full = (1 << frame.size) - 1
    for body, name in zip(bodies, names):
        for s in enumerate_subsets(frame):
            if s.bits == 0 or s.bits == full:
                continue
            lo = belief(body, s)
            if lo > 0:
                constraints.append(
                    lp.LinearConstraint(
                        _indicator(frame, s), lp.Sense.GE, lo, f"{name}:bel:{s}"
                    )
                )
    return ProbabilityConstraintSystem(frame, tuple(constraints))


def probability_bounds(
    system: ProbabilityConstraintSystem, target: FocalSet
) -> ProbabilityInterval:
    """Exact min and max of P(target) over the feasible polytope."""
    require_same_frame(system.frame, target.frame)
    if not system.feasible:
        return ProbabilityInterval(target, None, None, False)
    objective = _indicator(system.frame, target)
    n = system.frame.size
    low = lp.minimize(objective, system.constraints, n, start=system.start)
    high = lp.maximize(objective, system.constraints, n, start=system.start)
    if low.status is not lp.LPStatus.OPTIMAL or high.status is not lp.LPStatus.OPTIMAL:
        raise AssertionError("bounded polytope cannot yield an unbounded LP")
    return ProbabilityInterval(target, low.value, high.value, True)


def _verdict(
    ds_lower: Fraction,
    ds_upper: Fraction,
    prob: ProbabilityInterval,
    combined_tag: StructureTag,
) -> Verdict:
    if not prob.feasible:
        return Verdict.INFEASIBLE
    assert prob.lower is not None and prob.upper is not None
    ds_point = ds_lower == ds_upper
    prob_point = prob.lower == prob.upper
    if ds_point and prob_point:
        return Verdict.EXACT_MATCH if ds_lower == prob.lower else Verdict.VIOLATION
    if prob.upper < ds_lower or ds_upper < prob.lower:
        return Verdict.DISJOINT_VIOLATION
    # Intervals intersect.  For a quasi-partition decision set the required
    # relation pins P to the belief value, so belief must itself be
    # attainable; a mere overlap elsewhere in the interval is not enough.
    if combined_tag is StructureTag.QUASI_PARTITION and not (
        prob.lower <= ds_lower <= prob.upper
    ):
        return Verdict.VIOLATION
    return Verdict.COMPATIBLE


def audit(
    bodies: Sequence[BodyOfEvidence], names: Sequence[str] | None = None
) -> ConsistencyReport:
    """Combine the bodies, then compare DS intervals with probability bounds.

    DS intervals [belief, plausibility] come from the combined body, for every
    singleton and every combined focal element; probability bounds come from
    the constraint system of the ORIGINAL bodies.  Raises TotalConflictError
    if combination is impossible.
    """
    if len(bodies) < 2:
        raise ValueError("audit requires at least two bodies")
    combination = combine_many(bodies)
    combined = combination.combined
    frame = combined.frame
    system = build_constraints(bodies, names)
    combined_tag = classify(combined).tag

    targets = {1 << i for i in range(frame.size)}
    targets.update(s.bits for s in combined.focal_sets())
    findings: list[ElementFinding] = []
    feasible = True
    for bits in sorted(targets):
        subset = FocalSet(frame, bits)
        ds_lower = belief(combined, subset)
        ds_upper = plausibility(combined, subset)
        prob = probability_bounds(system, subset)
        feasible = feasible and prob.feasible
        findings.append(
            ElementFinding(
                subset, ds_lower, ds_upper, prob,
                _verdict(ds_lower, ds_upper, prob, combined_tag),
            )
        )
    return ConsistencyReport(
        combination.kappa, combined, tuple(findings), feasible, combination, system
    )
