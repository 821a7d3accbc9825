"""Probability intervals implied by evidence, and audits against them.

Each input mass assignment is treated as partial information about a single
probability distribution P over the frame.  A body allows P iff each focal
set's mass can be split over its own elements so that the shares add up to
P (Dempster 1967).  So the bounds on P(S) are exact LPs over allocations:
one variable x[k,A,w] >= 0 per body k, focal set A of k with two or more
elements, and element w of A, the mass A gives to w.  A singleton focal set
can only give its mass to its element, so its share is a constant, not a
variable.  One row per focal set says its shares sum to its mass; one row
per body after the first and per element but the last says that body's
marginal equals body 0's (the last element's row follows from the totals).
P is body 0's marginal.  The LP grows with the total size of the focal
sets, never with the power set.  The system is built from the bodies'
stored ints: its rows are [A | D*b] with D the lcm of the bodies'
denominators, and `lp.phase_one` runs simplex phase one on them once,
when the system is built.  Every target's minimum and maximum start
from that feasible basis.  The rows as tagged `lp.LinearConstraint`s are
built only when `constraints` is first read, as a solve does, so an
infeasible system never builds them.  The tight interval per target is
then compared with the [belief, plausibility] interval of the
Dempster-combined body.

Every bound is asked of `probability_bounds`, which alone decides whether
a side needs an LP; its rules hold for a direct call as for an audit.  The
system keeps each answer by bitmask.  P sums to 1 at every feasible point,
so min P(S) = 1 - max P(complement) and max P(S) = 1 - min P(complement):
each answer also keeps its complement's interval, [1 - upper, 1 - lower].
A target already kept costs no witness scan and no LP.

Every other side is settled without a solve when it can be.  Every
feasible P has max_k bel_k(S) <= P(S) <= min_k pl_k(S) (Dempster 1967),
so when a feasible point already in hand attains one of these per-body
bounds, that bound is the optimum.  The system keeps such points as
witnesses: phase one's start, seeded on the first bound asked for, and
the optimum of every solve since.  Each is one int per element over
den*d, and each per-body bound is an int sum over den, so the witness
check compares ints.  Both of the frame's per-body bounds are den, so any
witness settles the frame at [1, 1].  Only a side that no witness settles
is solved, by one LP from the system's start, so a feasible system asks
for at most two LPs per target and an infeasible one none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Sequence

from . import lp
from .combine import combine_many
from .evidence import BodyOfEvidence, StructureTag, classify
from .frames import FocalSet, Frame, _shown, require_same_frame
from .measures import belief, plausibility


@dataclass(frozen=True)
class ProbabilityConstraintSystem:
    """The distributions over the frame that every body allows, as the
    allocation LP.

    `rows` holds the LP rows over the allocation variables as ints
    [A | den*b], `names` the bodies' names, `owners` the (body index,
    element index) of each variable, and `fixed` body 0's singleton masses
    per element as ints over den: P(w) is fixed[w] / den plus body 0's
    variables owned by w.  `masses` holds each body's (bitmask, int) masses
    over den.  `start` is the simplex phase one of the rows: None when no
    distribution satisfies every body.  `constraints`, the rows as tagged
    `lp.LinearConstraint`s, is built on first read and kept.

    `solved` and `witnesses` are the memos that `probability_bounds` fills
    (see the module docstring).  `solved` maps a bitmask to its exact
    (lower, upper), for each target asked for and its complement.
    `witnesses` holds distinct feasible distributions, oldest first, each
    as (d, p) with P(w) = p[w] / (den*d).  Both start empty, so a copy made
    by `dataclasses.replace` starts afresh.
    """

    frame: Frame
    rows: tuple[tuple[int, ...], ...] = field(repr=False)
    den: int = field(repr=False)
    names: tuple[str, ...]
    owners: tuple[tuple[int, int], ...] = field(repr=False)
    fixed: tuple[int, ...] = field(repr=False)
    masses: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False)
    start: lp.FeasibleStart | None = field(compare=False, repr=False)
    solved: dict[int, tuple[Fraction, Fraction]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    witnesses: dict[tuple[int, tuple[int, ...]], None] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @property
    def feasible(self) -> bool:
        return self.start is not None

    @cached_property
    def constraints(self) -> tuple[lp.LinearConstraint, ...]:
        """Each row with its rhs as a `Fraction` and a tag: body:split:set
        for a split row, body:marginal:element for a marginal row."""
        frame, rows, names, den = self.frame, self.rows, self.names, self.den
        marginal = [f"{name}:marginal:{w}" for name in names[1:] for w in frame.elements[:-1]]
        tags = []
        for row in rows[: len(rows) - len(marginal)]:
            # A split row's ones are its focal set's columns, all owned by one body.
            body, bits = zip(*[(k, 1 << w) for (k, w), v in zip(self.owners, row) if v])
            tags.append(f"{names[body[0]]}:split:{FocalSet(frame, sum(bits))}")
        pairs = zip(rows, tags + marginal)
        return tuple(lp.LinearConstraint(r[:-1], Fraction(r[-1], den), t) for r, t in pairs)


@dataclass(frozen=True)
class ProbabilityInterval:
    """Exact [lower, upper] bounds on P(subset); None bounds when infeasible."""

    subset: FocalSet
    lower: Fraction | None
    upper: Fraction | None

    @property
    def feasible(self) -> bool:
        return self.lower is not None


class Verdict(Enum):
    EXACT_MATCH = "ExactMatch"
    COMPATIBLE = "Compatible"
    VIOLATION = "Violation"
    DISJOINT_VIOLATION = "DisjointViolation"
    INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class ElementFinding:
    ds_lower: Fraction
    ds_upper: Fraction
    prob: ProbabilityInterval
    verdict: Verdict

    @property
    def subset(self) -> FocalSet:
        return self.prob.subset


@dataclass(frozen=True)
class ConsistencyReport:
    kappa: Fraction
    combined: BodyOfEvidence
    findings: tuple[ElementFinding, ...]
    system: ProbabilityConstraintSystem

    @property
    def feasible(self) -> bool:
        return self.system.feasible


def build_constraints(
    bodies: Sequence[BodyOfEvidence], names: Sequence[str] | None = None
) -> ProbabilityConstraintSystem:
    """The allocation system of the given bodies, with its phase one run.

    Rows, all equalities, as the int rows [A | den*b] that `lp.phase_one`
    takes: 0/+-1 coefficients, then the rhs times den, the lcm of the
    bodies' denominators.  Each focal set of two or more elements splits
    its mass over its elements; each body after the first has body 0's
    marginal on every element but the last.  A vacuous body adds one split
    row.  Only the bodies' `den` and `masses` are read.  ``names``, one per
    body and body0, body1, ... by default, is a sequence, not a bare string
    (ValueError).
    """
    if not bodies:
        raise ValueError("need at least one body")
    frame = bodies[0].frame
    for b in bodies[1:]:
        require_same_frame(frame, b.frame)
    if names is None:
        names = [f"body{i}" for i in range(len(bodies))]
    if isinstance(names, str):
        raise ValueError(f"names take a sequence, not the string {_shown(names)}")
    if len(names) != len(bodies):
        raise ValueError(f"{len(names)} names for {len(bodies)} bodies")

    n = frame.size
    den = lcm(*[b.den for b in bodies])
    width = sum(bits.bit_count() for b in bodies for bits, _ in b.masses if bits & (bits - 1))
    masses = tuple(tuple((bits, m * (den // b.den)) for bits, m in b.masses) for b in bodies)
    fixed = [[0] * n for _ in bodies]
    owners: list[tuple[int, int]] = []
    rows: list[tuple[int, ...]] = []
    for k, body in enumerate(masses):
        for bits, m in body:
            if not bits & (bits - 1):
                fixed[k][bits.bit_length() - 1] = m
                continue
            members = [w for w in range(n) if bits >> w & 1]
            before, size = len(owners), len(members)
            rows.append((0,) * before + (1,) * size + (0,) * (width - before - size) + (m,))
            owners.extend([(k, w) for w in members])
    for k in range(1, len(bodies)):
        for w in range(n - 1):
            plus, minus = (k, w), (0, w)
            row = [1 if o == plus else -1 if o == minus else 0 for o in owners]
            rows.append((*row, fixed[0][w] - fixed[k][w]))
    start = lp.phase_one(rows, den, len(owners))
    return ProbabilityConstraintSystem(
        frame, tuple(rows), den, tuple(names), tuple(owners), tuple(fixed[0]), masses, start
    )


def _remember(system: ProbabilityConstraintSystem, basis: lp.FeasibleStart) -> None:
    """Add the distribution at a basis to the system's witnesses.

    The basis holds x_b = rhs / (d * basis.den) for each basic b, and den
    is a multiple of basis.den, so P(w) * den * d is d times body 0's fixed
    mass on w plus den // basis.den times the rhs of body 0's basic
    variables owned by w.  The ints are divided by their gcd with d, so one
    distribution has one key."""
    d = basis.scale
    p = [d * m for m in system.fixed]
    ratio, owners = system.den // basis.den, system.owners
    for row, b in zip(basis.rows, basis.basis):
        k, w = owners[b]
        if k == 0:
            p[w] += ratio * row[-1]
    g = gcd(d, *p)
    system.witnesses[(d // g, tuple([v // g for v in p]))] = None


def probability_bounds(
    system: ProbabilityConstraintSystem, target: FocalSet
) -> ProbabilityInterval:
    """Exact min and max of P(target) over the feasible polytope.

    The one place that decides whether a side needs an LP, by the rules of
    the module docstring, in this order: a target kept in the system's
    `solved`, as asked for before or as the complement of one that was,
    returns its interval.  Otherwise the min is at least max_k
    bel_k(target) and the max at most min_k pl_k(target) (Dempster 1967);
    a side whose per-body bound one of the system's witnesses attains is
    that bound, with no LP, the witnesses checked newest first.  Each
    remaining side is one LP from the system's start, and the point it
    ends on becomes a witness.  The interval and its complement's are then
    kept.
    """
    require_same_frame(system.frame, target.frame)
    if not system.feasible:
        return ProbabilityInterval(target, None, None)
    solved, witnesses, den, bits = system.solved, system.witnesses, system.den, target.bits
    if bits in solved:
        return ProbabilityInterval(target, *solved[bits])
    if not witnesses:
        _remember(system, system.start)
    low = max([sum([m for t, m in body if not t & ~bits]) for body in system.masses])
    high = den - max([sum([m for t, m in body if not t & bits]) for body in system.masses])
    members = [w for w in range(system.frame.size) if bits >> w & 1]
    lower = upper = None
    # A snapshot: another thread's solve may add a witness meanwhile.
    for d, p in reversed(tuple(witnesses)):
        at = sum([p[w] for w in members])
        if lower is None and at == low * d:
            lower = Fraction(low, den)
        if upper is None and at == high * d:
            upper = Fraction(high, den)
        if lower is not None and upper is not None:
            break
    if lower is None or upper is None:
        objective = [1 if k == 0 and bits >> w & 1 else 0 for k, w in system.owners]
        base = Fraction(sum([system.fixed[w] for w in members]), den)
        n = len(objective)
        if lower is None:
            low_sol = lp.minimize(objective, system.constraints, n, start=system.start)
            _remember(system, low_sol.basis)
            lower = base + low_sol.value
        if upper is None:
            high_sol = lp.maximize(objective, system.constraints, n, start=system.start)
            _remember(system, high_sol.basis)
            upper = base + high_sol.value
    solved[bits] = lower, upper
    solved[((1 << system.frame.size) - 1) ^ bits] = 1 - upper, 1 - lower
    return ProbabilityInterval(target, lower, upper)


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
    singleton and every combined focal element, in ascending bitmask order;
    probability bounds come from `probability_bounds` on the constraint
    system of the ORIGINAL bodies, so its shortcuts (the frame, complements,
    witnesses) serve the audit as they serve any caller.  Raises
    TotalConflictError if combination is impossible.
    """
    if len(bodies) < 2:
        raise ValueError("audit requires at least two bodies")
    combination = combine_many(bodies)
    combined = combination.combined
    frame = combined.frame
    system = build_constraints(bodies, names)
    combined_tag = classify(combined)

    targets = {1 << i for i in range(frame.size)}
    targets.update(bits for bits, _ in combined.masses)
    findings: list[ElementFinding] = []
    for bits in sorted(targets):
        subset = FocalSet(frame, bits)
        ds_lower = belief(combined, subset)
        ds_upper = plausibility(combined, subset)
        prob = probability_bounds(system, subset)
        findings.append(
            ElementFinding(
                ds_lower, ds_upper, prob, _verdict(ds_lower, ds_upper, prob, combined_tag)
            )
        )
    return ConsistencyReport(combination.kappa, combined, tuple(findings), system)
