"""Dempster's rule of combination with conflict accounting and provenance.

Combination pools the products of masses over equal non-empty pairwise
intersections and renormalizes by 1 - kappa, where kappa is the total product
mass landing on empty intersections.  kappa = 1 (disjoint supports) is an
error: no decision set can be formed.

The products are summed as Python ints: each body stores its masses as ints
over its least common denominator, so every product is an int over the
product ``da * db`` of the two denominators.  kappa is ``clash / (da * db)``
and each combined mass is its bucket over ``da * db - clash``; one gcd
reduces the buckets to the combined body's least denominator.  A result
stores bitmasks and index pairs; its ``provenance`` and ``conflict_pairs``,
which name focal sets, are built on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .evidence import BodyOfEvidence, EvidenceError
from .frames import FocalSet, require_same_frame


class TotalConflictError(ArithmeticError):
    """kappa = 1: the bodies' supports are disjoint and cannot be combined."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class CombinationResult:
    """Outcome of one combination (or of a left fold over several bodies).

    ``sources`` maps each combined focal set's bitmask to the (i, j) index
    pairs, into the two input focal lists, whose intersections produced it;
    ``clashes`` lists the bitmask pairs with empty intersection.  The views
    ``provenance`` (the same map keyed by FocalSet) and ``conflict_pairs``
    (the clashing FocalSet pairs) are built on first read.  For folds,
    ``steps`` records each pairwise result in order; it is excluded from
    equality so a two-body fold compares equal to the plain pairwise
    combination.
    """

    combined: BodyOfEvidence
    kappa: Fraction
    sources: Mapping[int, Sequence[tuple[int, int]]]
    clashes: tuple[tuple[int, int], ...]
    steps: tuple["CombinationResult", ...] = field(default=(), compare=False)

    @cached_property
    def provenance(self) -> Mapping[FocalSet, tuple[tuple[int, int], ...]]:
        sources = self.sources
        return {s: tuple(sources[s.bits]) for s, _ in self.combined.focal if s.bits in sources}

    @cached_property
    def conflict_pairs(self) -> tuple[tuple[FocalSet, FocalSet], ...]:
        frame = self.combined.frame
        sets = {bits: FocalSet(frame, bits) for bits in {b for pair in self.clashes for b in pair}}
        return tuple((sets[s], sets[t]) for s, t in self.clashes)


def _products(
    a: BodyOfEvidence, b: BodyOfEvidence
) -> tuple[int, int, dict[int, int], dict[int, list[tuple[int, int]]], list[tuple[int, int]]]:
    """Every pairwise product of the two bodies' masses, as an int over ``whole``.

    Returns ``(whole, clash, buckets, sources, clashes)``: ``whole`` is
    ``da * db``; ``clash`` totals the products on empty intersections, whose
    bitmask pairs ``clashes`` lists in loop order; ``buckets`` maps each
    non-empty intersection's bitmask to its product total and ``sources``
    to its (i, j) pairs.
    """
    require_same_frame(a.frame, b.frame)
    clash = 0
    buckets: dict[int, int] = {}
    sources: dict[int, list[tuple[int, int]]] = {}
    clashes: list[tuple[int, int]] = []
    b_masses = b.masses
    for i, (s, ms) in enumerate(a.masses):
        for j, (t, mt) in enumerate(b_masses):
            inter = s & t
            if inter == 0:
                clash += ms * mt
                clashes.append((s, t))
            elif inter in buckets:
                buckets[inter] += ms * mt
                sources[inter].append((i, j))
            else:
                buckets[inter] = ms * mt
                sources[inter] = [(i, j)]
    return a.den * b.den, clash, buckets, sources, clashes


def conflict(a: BodyOfEvidence, b: BodyOfEvidence) -> Fraction:
    """The conflict coefficient: total product mass on empty intersections."""
    whole, clash, *_ = _products(a, b)
    return Fraction(clash, whole)


def combine(a: BodyOfEvidence, b: BodyOfEvidence) -> CombinationResult:
    """Combine two bodies by Dempster's rule.

    One focal element per distinct non-empty intersection; intersections that
    coincide as sets are pooled into a single element.  Raises
    TotalConflictError when kappa = 1.

    The combined body is built without ``make_body``: its masses are positive
    products, its focal sets distinct non-empty intersections in ascending
    bitmask order, on the inputs' checked frame.  The one fact construction
    does not give, that the buckets hold all the mass kappa leaves, is checked.
    """
    whole, clash, buckets, sources, clashes = _products(a, b)
    scale = whole - clash
    if scale == 0:
        raise TotalConflictError(
            "total conflict (kappa = 1): the bodies' supports are disjoint, "
            "so no decision set can be formed"
        )
    total = sum(buckets.values())
    if total != scale:
        raise EvidenceError(
            f"combined masses must sum to exactly 1, got {Fraction(total, scale)}: "
            "the input masses do not sum to 1"
        )
    g = math.gcd(scale, *buckets.values())
    masses = tuple((bits, buckets[bits] // g) for bits in sorted(buckets))
    combined = BodyOfEvidence(a.frame, scale // g, masses)
    return CombinationResult(combined, Fraction(clash, whole), sources, tuple(clashes))


def combine_many(bodies: Sequence[BodyOfEvidence]) -> CombinationResult:
    """Left-to-right fold of Dempster's rule over one or more bodies.

    The returned result is the final pairwise combination; ``steps`` holds
    every intermediate result, each with its own kappa and provenance.  A
    single body returns unchanged with kappa 0.  TotalConflictError carries
    the 1-based number of the step that failed as ``step``, which is the
    0-based index of the body that step incorporates.
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
    return CombinationResult(last.combined, last.kappa, last.sources, last.clashes, tuple(steps))
