"""Belief and plausibility measures, and exact mass recovery from belief.

Belief of a set is the total mass of focal sets contained in it; plausibility
is the total mass of focal sets meeting it.  The two are dual through the
complement, and the mass assignment can be recovered from a complete belief
table by alternating-sign subset sums (Mobius inversion).

``belief`` and ``plausibility`` answer one subset by a pass over the focal
sets.  Whole tables and inversion use the in-place subset-sum butterfly of
Kennes and Smets (1990), O(n * 2**n) for a frame of n elements: the zeta
transform of the masses is the belief table, and the Mobius transform of a
belief table is the mass assignment.

A ``MeasureTable`` is stored dense: one common denominator and one Python int
per subset, indexed by bitmask, so the value of subset S is
``Fraction(ints[S.bits], den)``.  ``measure_table`` fills the ints from the
masses scaled to their least common denominator and builds no per-subset
object; ``mass_from_belief`` runs the Mobius butterfly on a copy of the same
ints.  ``values`` is a read-only mapping of every subset to its ``Fraction``,
built whole on first read and kept with the table; neither function builds
it.  On the combined bodies of the combine-mobius benchmark (8-11
elements; shared 2-vCPU machine, Python 3.11) one table takes 0.2-0.3 ms and
one inversion 0.4-0.5 ms per document.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from types import MappingProxyType

from .evidence import BodyOfEvidence, integer_masses
from .frames import FocalSet, Frame, enumerate_subsets, require_same_frame


class MeasureKind(Enum):
    BELIEF = "Belief"
    PLAUSIBILITY = "Plausibility"


class InversionError(ValueError):
    """A table passed to mass_from_belief is not a valid belief function."""

    def __init__(self, message: str, subset: FocalSet | None = None):
        super().__init__(message)
        self.subset = subset


@dataclass(frozen=True)
class MeasureTable:
    """Measure values for every subset of a frame.

    The value of subset S is ``Fraction(ints[S.bits], den)``.  Both ways of
    building a table keep ``den`` the least denominator that makes every
    value an int, so equal tables have equal fields.  A table whose
    ``kind`` is not a MeasureKind, without one value per subset, or with
    ``den`` below 1 raises InversionError.  Only ``from_values`` checks that
    each value is exact, at O(2^n) per table, so a direct construction must
    pass ints.
    """

    frame: Frame
    kind: MeasureKind
    den: int
    ints: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.kind, MeasureKind):
            raise InversionError(f"table kind must be a MeasureKind, got {self.kind!r}")
        if len(self.ints) != 1 << self.frame.size:
            raise InversionError(
                f"table has {len(self.ints)} values; a frame of size "
                f"{self.frame.size} has {1 << self.frame.size} subsets"
            )
        if self.den < 1:
            raise InversionError(f"table denominator must be at least 1, got {self.den}")

    @classmethod
    def from_values(
        cls, frame: Frame, kind: MeasureKind, values: Mapping[FocalSet, Fraction]
    ) -> MeasureTable:
        """A table from one exact value per subset of ``frame``.

        Raises InversionError, naming the subset, if a subset has no value or
        its value is a bool or not an int or Fraction.
        """
        table = []
        for s in enumerate_subsets(frame):
            try:
                value = values[s]
            except KeyError:
                raise InversionError(f"table has no value for {s}", subset=s) from None
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise InversionError(
                    f"{kind.value.lower()} of {s} must be an int or Fraction, got {value!r}",
                    subset=s,
                )
            table.append(value)
        den = math.lcm(*{value.denominator for value in table})
        ints = tuple(value.numerator * (den // value.denominator) for value in table)
        return cls(frame, kind, den, ints)

    @cached_property
    def values(self) -> Mapping[FocalSet, Fraction]:
        """Read-only mapping of every subset of the frame to its exact value,
        in ascending bitmask order; built on first read and kept."""
        subsets = enumerate_subsets(self.frame)
        return MappingProxyType(dict(zip(subsets, map(Fraction, self.ints, repeat(self.den)))))

    def __reduce__(self):
        # A read `values` is kept in the instance, and a mapping proxy cannot
        # be pickled or deep-copied; the fields alone rebuild the table.
        return MeasureTable, (self.frame, self.kind, self.den, self.ints)


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
    return MeasureTable(body.frame, kind, den, tuple(sums))


def mass_from_belief(table: MeasureTable) -> BodyOfEvidence:
    """Recover the unique mass assignment underlying a belief table.

    m(A) = sum over B subset-of A of (-1)^|A-B| * bel(B), computed for all
    subsets at once by one Mobius butterfly over the table's ints.

    Raises InversionError, naming the offending subset where one exists, if
    the table is not an exact belief function: wrong endpoints or a negative
    recovered mass (the lowest such bitmask is named).  Incomplete tables and
    values that are not an int or Fraction are refused when a table is built
    by hand (``MeasureTable.from_values``).  Past those checks the recovered
    masses form a body by construction: the empty set's mass is bel(empty) =
    0, the masses sum to bel(frame) = 1, and the focal sets are distinct and
    in ascending bitmask order.  So the body is built directly, not through
    make_body.
    """
    if table.kind is not MeasureKind.BELIEF:
        raise InversionError(f"expected a Belief table, got {table.kind.value}")
    frame, den = table.frame, table.den
    sums = list(table.ints)
    if sums[0] != 0:
        raise InversionError(
            f"belief of the empty set must be 0, got {Fraction(sums[0], den)}",
            subset=frame.empty(),
        )
    if sums[-1] != den:
        raise InversionError(
            f"belief of the whole frame must be 1, got {Fraction(sums[-1], den)}",
            subset=frame.universe(),
        )
    _subset_sums(sums, frame.size, -1)
    if min(sums) < 0:
        bits = next(bits for bits, m in enumerate(sums) if m < 0)
        s = FocalSet(frame, bits)
        raise InversionError(
            f"recovered mass of {s} is negative ({Fraction(sums[bits], den)}); "
            "not a belief function",
            subset=s,
        )
    return BodyOfEvidence(
        frame,
        tuple(
            (FocalSet(frame, bits), Fraction(sums[bits], den))
            for bits in compress(range(len(sums)), sums)
        ),
    )
