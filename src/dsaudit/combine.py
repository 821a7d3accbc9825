"""Dempster's rule of combination with conflict accounting and provenance.

Combination pools the products of masses over equal non-empty pairwise
intersections and renormalizes by 1 - kappa, where kappa is the total product
mass landing on empty intersections.  kappa = 1 (disjoint supports) is an
error: no decision set can be formed.

The products are summed as Python ints: each body stores its masses as ints
over its least common denominator, so every product is an int over the
product ``da * db`` of the two denominators.  The pair loop only sums each
product into the bucket of its intersection; the empty intersection's bucket
is the clash.  kappa is ``clash / (da * db)`` and each combined mass is its
bucket over ``da * db - clash``; one gcd reduces the buckets to the combined
body's least denominator.  A result keeps the two bodies it combined; its
``provenance`` and ``conflict_pairs``, which name focal sets and index
pairs, come from one walk over those bodies' pairs on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .evidence import BodyOfEvidence
from .frames import FocalSet, require_same_frame


class TotalConflictError(ArithmeticError):
    """kappa = 1: the bodies' supports are disjoint and cannot be combined."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class CombinationResult:
    """Outcome of one combination (or of a left fold over several bodies).

    ``operands`` holds the two bodies that were combined, or ``()`` when a
    fold of one body combined nothing.  The views ``provenance`` (each
    combined focal set with the (i, j) index pairs, into the two operands'
    focal lists, whose intersections produced it) and ``conflict_pairs``
    (the FocalSet pairs with empty intersection) are built on first read,
    from one walk over the operands' pairs.  For folds, ``steps`` records
    each pairwise result in order; it is excluded from equality so a
    two-body fold compares equal to the plain pairwise combination.
    """

    combined: BodyOfEvidence
    kappa: Fraction
    operands: tuple[BodyOfEvidence, ...] = ()
    steps: tuple["CombinationResult", ...] = field(default=(), compare=False)

    @cached_property
    def _pair_walk(self) -> tuple[dict[int, list[tuple[int, int]]], list[tuple[int, int]]]:
        """The (i, j) pairs of each non-empty intersection, by bitmask, and the
        bitmask pairs of the empty ones, in loop order."""
        sources: dict[int, list[tuple[int, int]]] = {}
        clashes: list[tuple[int, int]] = []
        if self.operands:
            a, b = self.operands
            for i, (s, _) in enumerate(a.masses):
                for j, (t, _) in enumerate(b.masses):
                    inter = s & t
                    if inter:
                        sources.setdefault(inter, []).append((i, j))
                    else:
                        clashes.append((s, t))
        return sources, clashes

    @cached_property
    def provenance(self) -> Mapping[FocalSet, tuple[tuple[int, int], ...]]:
        sources = self._pair_walk[0]
        frame = self.combined.frame
        return {FocalSet(frame, bits): tuple(sources[bits]) for bits in sorted(sources)}

    @cached_property
    def conflict_pairs(self) -> tuple[tuple[FocalSet, FocalSet], ...]:
        clashes = self._pair_walk[1]
        frame = self.combined.frame
        sets = {bits: FocalSet(frame, bits) for bits in {b for pair in clashes for b in pair}}
        return tuple((sets[s], sets[t]) for s, t in clashes)


def _products(a: BodyOfEvidence, b: BodyOfEvidence) -> tuple[int, int, dict[int, int]]:
    """Every pairwise product of the two bodies' masses, as an int over ``whole``.

    Returns ``(whole, clash, buckets)``: ``whole`` is ``da * db``; ``clash``
    totals the products on empty intersections, and ``buckets`` maps each
    non-empty intersection's bitmask to its product total.
    """
    require_same_frame(a.frame, b.frame)
    buckets: dict[int, int] = {}
    get = buckets.get
    b_masses = b.masses
    for s, ms in a.masses:
        for t, mt in b_masses:
            inter = s & t
            buckets[inter] = get(inter, 0) + ms * mt
    clash = buckets.pop(0, 0)
    return a.den * b.den, clash, buckets


def conflict(a: BodyOfEvidence, b: BodyOfEvidence) -> Fraction:
    """The conflict coefficient: total product mass on empty intersections."""
    whole, clash, _ = _products(a, b)
    return Fraction(clash, whole)


def combine(a: BodyOfEvidence, b: BodyOfEvidence) -> CombinationResult:
    """Combine two bodies by Dempster's rule.

    One focal element per distinct non-empty intersection; intersections that
    coincide as sets are pooled into a single element.  Raises
    TotalConflictError when kappa = 1.

    The combined body is built without ``make_body``: its masses are positive
    products, its focal sets distinct non-empty intersections in ascending
    bitmask order, on the inputs' checked frame, and the buckets of two
    valid bodies sum to ``da * db - clash``.
    """
    whole, clash, buckets = _products(a, b)
    scale = whole - clash
    if scale == 0:
        raise TotalConflictError(
            "total conflict (kappa = 1): the bodies' supports are disjoint, "
            "so no decision set can be formed"
        )
    g = math.gcd(scale, *buckets.values())
    masses = tuple((bits, buckets[bits] // g) for bits in sorted(buckets))
    combined = BodyOfEvidence(a.frame, scale // g, masses)
    return CombinationResult(combined, Fraction(clash, whole), (a, b))


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
        return CombinationResult(acc, Fraction(0))
    last = steps[-1]
    return CombinationResult(last.combined, last.kappa, last.operands, tuple(steps))
