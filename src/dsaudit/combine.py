"""Dempster's rule of combination with conflict accounting and provenance.

Combination pools the products of masses over equal non-empty pairwise
intersections and renormalizes by 1 - kappa, where kappa is the total product
mass landing on empty intersections.  kappa = 1 (disjoint supports) is an
error: no decision set can be formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .evidence import BodyOfEvidence, make_body
from .frames import FocalSet, require_same_frame


class TotalConflictError(ArithmeticError):
    """kappa = 1: the bodies' supports are disjoint and cannot be combined."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class CombinationResult:
    """Outcome of one combination (or of a left fold over several bodies).

    ``provenance`` maps each combined focal set to the (i, j) index pairs,
    into the two input focal lists, whose intersections produced it.
    ``conflict_pairs`` lists the focal-set pairs with empty intersection.
    For folds, ``steps`` records each pairwise result in order; it is
    excluded from equality so a two-body fold compares equal to the plain
    pairwise combination.
    """

    combined: BodyOfEvidence
    kappa: Fraction
    provenance: Mapping[FocalSet, tuple[tuple[int, int], ...]]
    conflict_pairs: tuple[tuple[FocalSet, FocalSet], ...]
    steps: tuple["CombinationResult", ...] = field(default=(), compare=False)


def conflict(a: BodyOfEvidence, b: BodyOfEvidence) -> Fraction:
    """The conflict coefficient: total product mass on empty intersections."""
    require_same_frame(a.frame, b.frame)
    kappa = Fraction(0)
    for s, ms in a.focal:
        for t, mt in b.focal:
            if s.bits & t.bits == 0:
                kappa += ms * mt
    return kappa


def combine(a: BodyOfEvidence, b: BodyOfEvidence) -> CombinationResult:
    """Combine two bodies by Dempster's rule.

    One focal element per distinct non-empty intersection; intersections that
    coincide as sets are pooled into a single element.  Raises
    TotalConflictError when kappa = 1.
    """
    require_same_frame(a.frame, b.frame)
    frame = a.frame
    kappa = Fraction(0)
    buckets: dict[int, Fraction] = {}
    provenance: dict[int, list[tuple[int, int]]] = {}
    conflicts: list[tuple[FocalSet, FocalSet]] = []
    for i, (s, ms) in enumerate(a.focal):
        for j, (t, mt) in enumerate(b.focal):
            inter = s.bits & t.bits
            if inter == 0:
                kappa += ms * mt
                conflicts.append((s, t))
            else:
                buckets[inter] = buckets.get(inter, Fraction(0)) + ms * mt
                provenance.setdefault(inter, []).append((i, j))
    if kappa == 1:
        raise TotalConflictError(
            "total conflict (kappa = 1): the bodies' supports are disjoint, "
            "so no decision set can be formed"
        )
    scale = 1 - kappa
    assignments = [
        (FocalSet(frame, bits), mass / scale) for bits, mass in sorted(buckets.items())
    ]
    combined = make_body(frame, assignments)
    prov = {
        FocalSet(frame, bits): tuple(pairs) for bits, pairs in sorted(provenance.items())
    }
    return CombinationResult(combined, kappa, prov, tuple(conflicts))


def combine_many(bodies: Sequence[BodyOfEvidence]) -> CombinationResult:
    """Left-to-right fold of Dempster's rule over one or more bodies.

    The returned result is the final pairwise combination; ``steps`` holds
    every intermediate result, each with its own kappa and provenance.  A
    single body returns unchanged with kappa 0.  TotalConflictError carries
    the 1-based index of the body whose incorporation failed.
    """
    if not bodies:
        raise ValueError("combine_many requires at least one body")
    acc = bodies[0]
    steps: list[CombinationResult] = []
    for k, body in enumerate(bodies[1:], start=1):
        try:
            result = combine(acc, body)
        except TotalConflictError as exc:
            raise TotalConflictError(
                f"total conflict while combining body {k + 1} of {len(bodies)}", step=k
            ) from exc
        steps.append(result)
        acc = result.combined
    if not steps:
        return CombinationResult(acc, Fraction(0), {}, ())
    last = steps[-1]
    return CombinationResult(
        last.combined, last.kappa, last.provenance, last.conflict_pairs, tuple(steps)
    )
