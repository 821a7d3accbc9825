"""Belief and plausibility measures, and exact mass recovery from belief.

Belief of a set is the total mass of focal sets contained in it; plausibility
is the total mass of focal sets meeting it.  The two are dual through the
complement, and the mass assignment can be recovered from a complete belief
table by alternating-sign subset sums (Mobius inversion).

``belief`` and ``plausibility`` answer one subset by a pass over the focal
sets.  Whole tables and inversion use the in-place subset-sum butterfly of
Kennes and Smets (1990), O(n * 2**n) for a frame of n elements: the zeta
transform of the masses is the belief table, and the Mobius transform of a
belief table is the mass assignment.  The butterfly runs on Python ints, every
input scaled to the least common denominator of all inputs, and each result
goes back to an exact Fraction over that denominator.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping

from .evidence import BodyOfEvidence, integer_masses
from .frames import FocalSet, Frame, enumerate_subsets, require_same_frame


class MeasureKind(Enum):
    BELIEF = "Belief"
    PLAUSIBILITY = "Plausibility"


@dataclass(frozen=True)
class MeasureTable:
    """Measure values for every subset of a frame."""

    frame: Frame
    kind: MeasureKind
    values: Mapping[FocalSet, Fraction]


class InversionError(ValueError):
    """A table passed to mass_from_belief is not a valid belief function."""

    def __init__(self, message: str, subset: FocalSet | None = None):
        super().__init__(message)
        self.subset = subset


def belief(body: BodyOfEvidence, s: FocalSet) -> Fraction:
    """Total mass of focal sets contained in ``s``."""
    require_same_frame(body.frame, s.frame)
    total = Fraction(0)
    for t, m in body.focal:
        if t.bits & ~s.bits == 0:
            total += m
    return total


def plausibility(body: BodyOfEvidence, s: FocalSet) -> Fraction:
    """Total mass of focal sets having non-empty intersection with ``s``."""
    require_same_frame(body.frame, s.frame)
    total = Fraction(0)
    for t, m in body.focal:
        if t.bits & s.bits:
            total += m
    return total


def _subset_sums(sums: list[int], size: int, sign: int) -> None:
    """In place, ``sums[S] = sum over T subset-of S of sign**|S-T| * sums[T]``.

    The Kennes-Smets butterfly: one pass per element adds (sign +1, zeta) or
    subtracts (sign -1, Mobius) the value of ``S`` without that element into
    every ``S`` that has it, O(size * 2**size) operations in all.
    """
    op = operator.add if sign > 0 else operator.sub
    n = 1 << size
    half = 1
    while half < n:
        step = 2 * half
        # The masks holding this element form ``half`` progressions of stride
        # ``step`` or ``n // step`` runs of length ``half``: slice the fewer.
        if half * half < n:
            for j in range(half, step):
                sums[j::step] = map(op, sums[j::step], sums[j - half :: step])
        else:
            for hi in range(half, n, step):
                sums[hi : hi + half] = map(op, sums[hi : hi + half], sums[hi - half : hi])
        half = step


def measure_table(body: BodyOfEvidence, kind: MeasureKind) -> MeasureTable:
    """Evaluate belief or plausibility on all 2**size subsets."""
    den, scaled = integer_masses(body)
    sums = [0] * (1 << body.frame.size)
    for s, m in scaled:
        sums[s.bits] = m
    _subset_sums(sums, body.frame.size, 1)
    if kind is MeasureKind.PLAUSIBILITY:
        # pl(S) = bel(frame) - bel(not S); listing bel backwards lists bel(not S).
        total = sums[-1]
        sums = [total - b for b in reversed(sums)]
    values = {
        s: Fraction(v, den) for s, v in zip(enumerate_subsets(body.frame), sums)
    }
    return MeasureTable(body.frame, kind, values)


def mass_from_belief(table: MeasureTable) -> BodyOfEvidence:
    """Recover the unique mass assignment underlying a belief table.

    m(A) = sum over B subset-of A of (-1)^|A-B| * bel(B), computed for all
    subsets at once by one Mobius butterfly over the table.

    Raises InversionError, naming the offending subset where one exists, if
    the table is not an exact belief function: incomplete, wrong endpoints,
    a value that is not an int or Fraction, or a negative recovered mass (the
    lowest such bitmask is named).  Past those checks the recovered masses
    form a body by construction: the empty set's mass is bel(empty) = 0, the
    masses sum to bel(frame) = 1, and the focal sets are distinct and in
    ascending bitmask order.  So the body is built directly, not through
    make_body.
    """
    if table.kind is not MeasureKind.BELIEF:
        raise InversionError(f"expected a Belief table, got {table.kind.value}")
    frame = table.frame
    values = dict(table.values)
    bel = []
    for s in enumerate_subsets(frame):
        try:
            bel.append(values[s])
        except KeyError:
            raise InversionError(f"table has no value for {s}", subset=s) from None
    empty = frame.empty()
    omega = frame.universe()
    if bel[0] != 0:
        raise InversionError(
            f"belief of the empty set must be 0, got {bel[0]}", subset=empty
        )
    if bel[-1] != 1:
        raise InversionError(
            f"belief of the whole frame must be 1, got {bel[-1]}", subset=omega
        )
    for bits, value in enumerate(bel):
        if not isinstance(value, (int, Fraction)):
            s = FocalSet(frame, bits)
            raise InversionError(
                f"belief of {s} must be an int or Fraction, got {value!r}", subset=s
            )

    den = math.lcm(*{value.denominator for value in bel})
    sums = [value.numerator * (den // value.denominator) for value in bel]
    _subset_sums(sums, frame.size, -1)
    assignments: list[tuple[FocalSet, Fraction]] = []
    for bits, m in enumerate(sums):
        if m < 0:
            s = FocalSet(frame, bits)
            raise InversionError(
                f"recovered mass of {s} is negative ({Fraction(m, den)}); "
                "not a belief function",
                subset=s,
            )
        if m > 0:
            assignments.append((FocalSet(frame, bits), Fraction(m, den)))
    return BodyOfEvidence(frame, tuple(assignments))
